package bits

import "testing"

func TestHammingRoundTripAllNibbles(t *testing.T) {
	t.Parallel()
	for cr := 1; cr <= 4; cr++ {
		for n := byte(0); n < 16; n++ {
			code := HammingEncodeNibble(n, cr)
			if len(code) != 4+cr {
				t.Fatalf("cr=%d: code length %d", cr, len(code))
			}
			got, corrected, bad := HammingDecodeNibble(code, cr)
			if got != n || corrected || bad {
				t.Fatalf("cr=%d nibble %x: got %x corrected=%v bad=%v", cr, n, got, corrected, bad)
			}
		}
	}
}

func TestHammingCorrectsSingleBitError(t *testing.T) {
	t.Parallel()
	for _, cr := range []int{3, 4} {
		for n := byte(0); n < 16; n++ {
			for pos := 0; pos < 4+cr; pos++ {
				code := HammingEncodeNibble(n, cr)
				code[pos] ^= 1
				got, _, bad := HammingDecodeNibble(code, cr)
				if bad {
					t.Fatalf("cr=%d nibble %x flip %d: flagged uncorrectable", cr, n, pos)
				}
				if got != n {
					t.Fatalf("cr=%d nibble %x flip %d: decoded %x", cr, n, pos, got)
				}
			}
		}
	}
}

func TestHammingCR4DetectsDoubleError(t *testing.T) {
	t.Parallel()
	detected := 0
	total := 0
	for n := byte(0); n < 16; n++ {
		for p1 := 0; p1 < 8; p1++ {
			for p2 := p1 + 1; p2 < 8; p2++ {
				code := HammingEncodeNibble(n, 4)
				code[p1] ^= 1
				code[p2] ^= 1
				got, _, bad := HammingDecodeNibble(code, 4)
				total++
				if bad || got == n {
					// either flagged, or (rarely) decoded correctly anyway
					if bad {
						detected++
					}
				}
			}
		}
	}
	// Extended Hamming(8,4) detects all double errors.
	if detected != total {
		t.Fatalf("detected %d of %d double errors", detected, total)
	}
}

func TestHammingCR1CR2DetectErrors(t *testing.T) {
	t.Parallel()
	for _, cr := range []int{1, 2} {
		code := HammingEncodeNibble(0xA, cr)
		code[0] ^= 1
		_, _, bad := HammingDecodeNibble(code, cr)
		if !bad {
			t.Fatalf("cr=%d: single data-bit error not detected", cr)
		}
	}
}

func TestHammingDecodeWrongLength(t *testing.T) {
	t.Parallel()
	_, _, bad := HammingDecodeNibble([]byte{1, 0, 1}, 3)
	if !bad {
		t.Fatal("short code should be flagged")
	}
}

func TestHammingEncodePanicsOnBadCR(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("cr=5 should panic")
		}
	}()
	HammingEncodeNibble(0, 5)
}
