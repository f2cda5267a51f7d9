// Package bits provides the bit-level coding machinery shared by the PHY
// implementations: bit/byte (un)packing, CRCs, whitening sequences, Gray
// mapping, Hamming forward error correction, Manchester line coding and the
// diagonal interleaver used by LoRa.
package bits

// Unpack expands bytes into individual bits, most-significant bit first.
// Each output element is 0 or 1.
func Unpack(data []byte) []byte {
	out := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// Pack collapses a bit slice (values 0/1, MSB first) into bytes. A trailing
// partial byte is zero-padded on the right.
func Pack(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// UnpackLSB expands bytes into bits, least-significant bit first (the order
// used by 802.15.4-class radios on the air).
func UnpackLSB(data []byte) []byte {
	out := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// PackLSB collapses bits (LSB-first per byte) into bytes.
func PackLSB(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// GrayEncode maps a binary value to its Gray code.
func GrayEncode(v uint32) uint32 { return v ^ (v >> 1) }

// GrayDecode inverts GrayEncode.
func GrayDecode(g uint32) uint32 {
	v := g
	for shift := uint(1); shift < 32; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

// Manchester encodes bits using IEEE 802.3 convention: 0 → 01, 1 → 10 (as
// used by G.9959 R1). The output has twice the input length.
func Manchester(bits []byte) []byte {
	out := make([]byte, 0, len(bits)*2)
	for _, b := range bits {
		if b == 0 {
			out = append(out, 0, 1)
		} else {
			out = append(out, 1, 0)
		}
	}
	return out
}

// ManchesterDecode inverts Manchester, returning the decoded bits and the
// number of chip pairs that violated the code (treated as majority-vote
// errors: 00 and 11 pairs decode from the first chip).
func ManchesterDecode(chips []byte) (bits []byte, violations int) {
	n := len(chips) / 2
	bits = make([]byte, 0, n)
	for i := 0; i < n; i++ {
		a, b := chips[2*i], chips[2*i+1]
		switch {
		case a == 0 && b == 1:
			bits = append(bits, 0)
		case a == 1 && b == 0:
			bits = append(bits, 1)
		default:
			violations++
			bits = append(bits, a)
		}
	}
	return bits, violations
}

// Repeat returns the input bits with each bit repeated n times.
func Repeat(bits []byte, n int) []byte {
	out := make([]byte, 0, len(bits)*n)
	for _, b := range bits {
		for i := 0; i < n; i++ {
			out = append(out, b)
		}
	}
	return out
}
