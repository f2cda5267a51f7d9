package bits

// Hamming implements the LoRa-style Hamming forward error correction used
// for code rates 4/5 through 4/8: every 4 data bits (a nibble) are expanded
// to 4+cr bits, cr in {1..4}. cr=1 appends a single parity bit (error
// detection only); cr=2 detects double errors; cr=3 (Hamming(7,4)) and cr=4
// (Hamming(8,4)) correct single-bit errors.

// HammingEncodeNibble encodes the low 4 bits of nibble with the given
// redundancy cr (1..4) and returns 4+cr bits (values 0/1), data first.
func HammingEncodeNibble(nibble byte, cr int) []byte {
	d0 := nibble & 1
	d1 := (nibble >> 1) & 1
	d2 := (nibble >> 2) & 1
	d3 := (nibble >> 3) & 1
	p0 := d0 ^ d1 ^ d2 // classic Hamming(7,4) parities
	p1 := d0 ^ d1 ^ d3
	p2 := d0 ^ d2 ^ d3
	p3 := d0 ^ d1 ^ d2 ^ d3                 // data parity, used by cr 1 and 2
	ext := d0 ^ d1 ^ d2 ^ d3 ^ p0 ^ p1 ^ p2 // overall parity of the (7,4) codeword
	out := []byte{d0, d1, d2, d3}
	switch cr {
	case 1:
		out = append(out, p3)
	case 2:
		out = append(out, p3, p0^p1)
	case 3:
		out = append(out, p0, p1, p2)
	case 4:
		out = append(out, p0, p1, p2, ext)
	default:
		panic("bits: Hamming cr must be in 1..4")
	}
	return out
}

// HammingDecodeNibble decodes 4+cr bits produced by HammingEncodeNibble,
// returning the nibble, whether a correction was applied, and whether an
// uncorrectable error was detected.
func HammingDecodeNibble(code []byte, cr int) (nibble byte, corrected, bad bool) {
	if len(code) != 4+cr {
		return 0, false, true
	}
	get := func(i int) byte { return code[i] & 1 }
	d0, d1, d2, d3 := get(0), get(1), get(2), get(3)
	assemble := func() byte { return d0 | d1<<1 | d2<<2 | d3<<3 }
	switch cr {
	case 1:
		p := get(4)
		if d0^d1^d2^d3 != p {
			return assemble(), false, true
		}
		return assemble(), false, false
	case 2:
		p3 := get(4)
		pp := get(5)
		okP3 := d0^d1^d2^d3 == p3
		okPP := (d0^d1^d2)^(d0^d1^d3) == pp
		if !okP3 || !okPP {
			return assemble(), false, true
		}
		return assemble(), false, false
	case 3, 4:
		p0, p1, p2 := get(4), get(5), get(6)
		s0 := p0 ^ d0 ^ d1 ^ d2
		s1 := p1 ^ d0 ^ d1 ^ d3
		s2 := p2 ^ d0 ^ d2 ^ d3
		syndrome := s0 | s1<<1 | s2<<2
		if cr == 4 {
			// Extended Hamming: overall is the parity of all 8 received
			// bits, which is 0 for a valid codeword.
			overall := d0 ^ d1 ^ d2 ^ d3 ^ p0 ^ p1 ^ p2 ^ get(7)
			switch {
			case overall == 0 && syndrome == 0:
				return assemble(), false, false
			case overall == 0 && syndrome != 0:
				// even number of errors (≥2): uncorrectable
				return assemble(), false, true
			case syndrome == 0:
				// single error in the extension bit itself; data intact
				return assemble(), true, false
			}
			// overall odd, syndrome nonzero: single error, fall through to
			// the (7,4) correction below.
		}
		if syndrome != 0 {
			// map syndrome to the erroneous bit position
			switch syndrome {
			case 0b111:
				d0 ^= 1
			case 0b011:
				d1 ^= 1
			case 0b101:
				d2 ^= 1
			case 0b110:
				d3 ^= 1
			case 0b001:
				p0 ^= 1
			case 0b010:
				p1 ^= 1
			case 0b100:
				p2 ^= 1
			}
			corrected = true
		}
		return assemble(), corrected, false
	default:
		return 0, false, true
	}
}
