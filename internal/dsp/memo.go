package dsp

import (
	"container/list"
	"math"
	"sync"
)

// memoBudget bounds the bytes the spectrum memo retains (operand copies,
// chirps and spectra together). Sizing, from the end-to-end benchmark
// workloads run with no bound: mostly-noise air peaks at 17 entries /
// 69 MB, back-to-back LoRa collisions (~350 k-sample segments, 512 k-point
// correlations, 1 M-point Bluestein kernels) at 16 / 148 MB, and the
// two-gateway WAL fan-in at 55 / 283 MB. Most of the last two are
// Bluestein kernels for one segment's length, reused only while that
// segment decodes; what has to stay resident is the templates, the filter
// taps and the current segment's kernels. At 128 MiB the collision
// workload computes ~20 spectra for 359 lookups (16 with no bound, 116 at
// 64 MiB) and the fan-in 85 for ~1 650 (62 with no bound), so 128 MiB is
// the smallest power of two that does not thrash. It is also all that
// hostile segment lengths, one Bluestein kernel each, can make it hold.
const memoBudget = 128 << 20

// memoKey names one memoised spectrum: an m-point transform of an n-long
// operand with the given bit hash, or (bluestein set) the chirp and kernel
// spectrum of an n-point Bluestein transform.
type memoKey struct {
	m, n      int
	hash      uint64
	bluestein bool
}

// memoEntry is one memoised transform. Every slice in it is read-only once
// the entry is built: callers receive spec and chirp directly.
type memoEntry struct {
	key     memoKey
	operand []complex128 // private copy confirming a hit; nil for Bluestein
	chirp   []complex128 // Bluestein only: w[k] = e^{-iπk²/n}
	spec    []complex128
}

func (e *memoEntry) bytes() int {
	return 16 * (len(e.operand) + len(e.chirp) + len(e.spec))
}

// spectrumMemo is a goroutine-safe, byte-bounded LRU of transforms of fixed
// operands: preamble templates, FIR taps and Bluestein kernels recur across
// calls, segments and farm workers, so they are transformed once per
// process instead of once per call. A hit is confirmed bit for bit against
// the stored operand, so it returns exactly the slice a fresh transform
// would have produced.
type spectrumMemo struct {
	budget int

	mu      sync.Mutex
	used    int
	entries map[memoKey]*list.Element
	lru     list.List // front = most recently used; values are *memoEntry
}

func newSpectrumMemo(budget int) *spectrumMemo {
	return &spectrumMemo{budget: budget, entries: make(map[memoKey]*list.Element)}
}

// memo is the process-wide store. A Decoder owns its templates, built once
// at construction, but PHY demodulators build their sync templates on every
// call and every gateway and cloud shard has its own Decoder, so a template's
// spectrum outlives its owner: the memo shares it across them.
var memo = newSpectrumMemo(memoBudget)

// lookup returns the entry under key whose operand equals op bit for bit.
func (c *spectrumMemo) lookup(key memoKey, op []complex128) *memoEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*memoEntry)
	if !sameBits(e.operand, op) {
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// store inserts e (replacing any entry under its key) and evicts least
// recently used entries until the memo is within budget. An entry larger
// than the whole budget is not retained.
func (c *spectrumMemo) store(e *memoEntry) {
	size := e.bytes()
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.drop(el)
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.used += size
	for c.used > c.budget {
		c.drop(c.lru.Back())
	}
}

func (c *spectrumMemo) drop(el *list.Element) {
	e := c.lru.Remove(el).(*memoEntry)
	delete(c.entries, e.key)
	c.used -= e.bytes()
}

// padded returns the m-point FFT of op zero-padded to m (m >= len(op)).
// The result is shared and must not be written.
func (c *spectrumMemo) padded(op []complex128, m int) []complex128 {
	key := memoKey{m: m, n: len(op), hash: hashBits(op)}
	if e := c.lookup(key, op); e != nil {
		return e.spec
	}
	spec := paddedFFT(op, m)
	c.store(&memoEntry{key: key, operand: Clone(op), spec: spec})
	return spec
}

// bluesteinKernel returns the chirp w[k] = e^{-iπk²/n} of an n-point
// Bluestein transform and the m-point spectrum of its convolution kernel
// conj(w) (wrapped for circular convolution). Both are shared and must not
// be written.
func (c *spectrumMemo) bluesteinKernel(n, m int) (w, kernel []complex128) {
	key := memoKey{m: m, n: n, bluestein: true}
	if e := c.lookup(key, nil); e != nil {
		return e.chirp, e.spec
	}
	// Indices are taken mod 2n to stay exact.
	w = make([]complex128, n)
	for k := 0; k < n; k++ {
		j := (int64(k) * int64(k)) % int64(2*n)
		s, co := math.Sincos(-math.Pi * float64(j) / float64(n))
		w[k] = complex(co, s)
	}
	kernel = make([]complex128, m)
	for k := 0; k < n; k++ {
		bc := complex(real(w[k]), -imag(w[k]))
		kernel[k] = bc
		if k > 0 {
			kernel[m-k] = bc
		}
	}
	radix2(kernel)
	c.store(&memoEntry{key: key, chirp: w, spec: kernel})
	return w, kernel
}

// hashBits is a word-wise FNV-1a over the IEEE bits of v. It only routes a
// lookup; sameBits decides a hit.
func hashBits(v []complex128) uint64 {
	h := uint64(14695981039346656037)
	for _, z := range v {
		h = (h ^ math.Float64bits(real(z))) * 1099511628211
		h = (h ^ math.Float64bits(imag(z))) * 1099511628211
	}
	return h
}

// sameBits reports whether a and b hold identical bit patterns (so -0 and
// +0 differ and a NaN equals itself).
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
