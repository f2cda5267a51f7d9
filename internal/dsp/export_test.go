package dsp

// ResetMemo empties the spectrum memo, so the next transform runs cold.
func ResetMemo() { memo.reset() }

// MemoChecksum sums a hash of the bits of every memo entry (operand copy,
// chirp and spectrum), and returns it with the entry count.
func MemoChecksum() (entries int, sum uint64) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for el := memo.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		sum += hashBits(e.operand) + 3*hashBits(e.chirp) + 5*hashBits(e.spec)
	}
	return memo.lru.Len(), sum
}
