package bits

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(data []byte) bool {
		return bytes.Equal(Pack(Unpack(data)), data)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackLSBRoundTrip(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(data []byte) bool {
		return bytes.Equal(PackLSB(UnpackLSB(data)), data)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackKnown(t *testing.T) {
	t.Parallel()
	got := Unpack([]byte{0xA5})
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("Unpack(0xA5) = %v", got)
	}
	gotLSB := UnpackLSB([]byte{0xA5})
	wantLSB := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	_ = wantLSB
	if !bytes.Equal(gotLSB, []byte{1, 0, 1, 0, 0, 1, 0, 1}) {
		t.Fatalf("UnpackLSB(0xA5) = %v", gotLSB)
	}
}

func TestPackPartialByte(t *testing.T) {
	t.Parallel()
	got := Pack([]byte{1, 1, 1})
	if len(got) != 1 || got[0] != 0xE0 {
		t.Fatalf("Pack partial = %#x", got)
	}
}

func TestGrayRoundTrip(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(v uint32) bool {
		return GrayDecode(GrayEncode(v)) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrayAdjacency(t *testing.T) {
	t.Parallel()
	// Successive Gray codes differ in exactly one bit — the property that
	// makes ±1 LoRa symbol errors cost one bit.
	for v := uint32(0); v < 4096; v++ {
		a, b := GrayEncode(v), GrayEncode(v+1)
		diff := a ^ b
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in more than one bit", v, v+1)
		}
	}
}

func TestManchesterRoundTrip(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(data []byte) bool {
		in := Unpack(data)
		dec, viol := ManchesterDecode(Manchester(in))
		return viol == 0 && bytes.Equal(dec, in)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManchesterViolations(t *testing.T) {
	t.Parallel()
	_, viol := ManchesterDecode([]byte{0, 0, 1, 1, 0, 1})
	if viol != 2 {
		t.Fatalf("violations = %d, want 2", viol)
	}
}

func TestRepeat(t *testing.T) {
	t.Parallel()
	got := Repeat([]byte{1, 0}, 3)
	if !bytes.Equal(got, []byte{1, 1, 1, 0, 0, 0}) {
		t.Fatalf("repeat = %v", got)
	}
}

func TestCRC16CCITTVectors(t *testing.T) {
	t.Parallel()
	// Standard check value for "123456789".
	if got := CRC16CCITT([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16-CCITT = %#04x, want 0x29B1", got)
	}
	if got := CRC16CCITT(nil); got != 0xFFFF {
		t.Fatalf("CRC16-CCITT(empty) = %#04x", got)
	}
}

func TestCRC16IBMVectors(t *testing.T) {
	t.Parallel()
	// CRC-16/ARC check value for "123456789".
	if got := CRC16IBM([]byte("123456789")); got != 0xBB3D {
		t.Fatalf("CRC16-ARC = %#04x, want 0xBB3D", got)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	t.Parallel()
	if err := quick.Check(func(data []byte, flipByte uint8, flipBit uint8) bool {
		if len(data) == 0 {
			return true
		}
		orig := CRC16CCITT(data)
		mod := append([]byte(nil), data...)
		mod[int(flipByte)%len(mod)] ^= 1 << (flipBit % 8)
		return CRC16CCITT(mod) != orig
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC8XOR(t *testing.T) {
	t.Parallel()
	if got := CRC8XOR(0xFF, []byte{0x01, 0x02, 0x03}); got != 0xFF^0x01^0x02^0x03 {
		t.Fatalf("xor checksum = %#02x", got)
	}
}
