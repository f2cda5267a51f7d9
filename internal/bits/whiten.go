package bits

// Whitener is a linear-feedback shift register (LFSR) based scrambler.
// Whitening decorrelates payload bits so the radio sees a balanced bit
// stream; because it is a pure XOR with a keystream, applying the same
// whitener twice restores the original data.
type Whitener struct {
	state   uint16
	taps    uint16
	order   uint
	initial uint16
}

// NewLoRaWhitener returns the 8-bit LFSR whitener used for LoRa payloads in
// this reproduction (x^8 + x^6 + x^5 + x^4 + 1, seed 0xFF), matching the
// gr-lora convention.
func NewLoRaWhitener() *Whitener {
	return &Whitener{state: 0xFF, taps: 0b01110001, order: 8, initial: 0xFF}
}

// NewDC9Whitener returns the 9-bit PN9 whitener (x^9 + x^5 + 1, seed
// 0x1FF) specified by IEEE 802.15.4g FSK PHYs and used by XBee-class
// transceivers (TI CC13xx data whitening).
func NewDC9Whitener() *Whitener {
	return &Whitener{state: 0x1FF, taps: 0b000010001, order: 9, initial: 0x1FF}
}

// Reset returns the whitener to its seed state.
func (w *Whitener) Reset() { w.state = w.initial }

// NextBit returns the next keystream bit and advances the LFSR (Fibonacci
// configuration: output is the register LSB, feedback is the XOR of tap
// bits).
func (w *Whitener) NextBit() byte {
	out := byte(w.state & 1)
	var fb uint16
	t := w.state & w.taps
	for t != 0 {
		fb ^= t & 1
		t >>= 1
	}
	w.state >>= 1
	w.state |= fb << (w.order - 1)
	return out
}

// Apply XORs the keystream into bits (values 0/1) in place and returns bits.
// Calling Apply twice from the same state is the identity.
func (w *Whitener) Apply(bits []byte) []byte {
	for i := range bits {
		bits[i] ^= w.NextBit()
	}
	return bits
}

// ApplyBytes whitens whole bytes MSB-first, returning a new slice.
func (w *Whitener) ApplyBytes(data []byte) []byte {
	b := Unpack(data)
	w.Apply(b)
	return Pack(b)
}
