package iq

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randSamples(r *rng.Rand, n int, scale float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64()*scale, r.NormFloat64()*scale)
	}
	return out
}

func TestEncodeDecodeSizes(t *testing.T) {
	data := Encode(make([]complex128, 10))
	if len(data) != 20 {
		t.Fatalf("encoded %d bytes", len(data))
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 10 {
		t.Fatalf("decoded %d samples", len(back))
	}
}

func TestDecodeRejectsPartialSample(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Fatal("partial cu8 sample should error")
	}
}

func TestQuantizationErrorBounds(t *testing.T) {
	r := rng.New(1)
	x := make([]complex128, 2000)
	for i := range x {
		// uniform in [-0.9, 0.9] so no sample clips
		x[i] = complex(1.8*r.Float64()-0.9, 1.8*r.Float64()-0.9)
	}
	const tol = 1.0 / 127.5 // half an LSB each side, plus rounding
	q := Quantize(x)
	for i := range x {
		if math.Abs(real(q[i])-real(x[i])) > tol || math.Abs(imag(q[i])-imag(x[i])) > tol {
			t.Fatalf("sample %d error %v exceeds %v", i, q[i]-x[i], tol)
		}
	}
}

func TestClipping(t *testing.T) {
	x := []complex128{complex(2, -3)}
	q := Quantize(x)
	if math.Abs(real(q[0])-1) > 0.01 || math.Abs(imag(q[0])+1) > 0.01 {
		t.Fatalf("clip got %v", q[0])
	}
}

func TestCU8RoundTripProperty(t *testing.T) {
	// Any byte stream of even length is a valid cu8 stream and must
	// round-trip bytes exactly through decode+encode.
	if err := quick.Check(func(data []byte) bool {
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		s, err := Decode(data)
		if err != nil {
			return false
		}
		return bytes.Equal(Encode(s), data)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroMapsNearMidpoint(t *testing.T) {
	data := Encode([]complex128{0})
	if data[0] != 127 && data[0] != 128 {
		t.Fatalf("zero encodes to %d", data[0])
	}
	s, _ := Decode(data)
	if math.Abs(real(s[0])) > 0.005 {
		t.Fatalf("zero decodes to %v", s[0])
	}
}

// TestWriterReaderStream streams Encode's bytes back through a Reader,
// split across two reads.
func TestWriterReaderStream(t *testing.T) {
	r := rng.New(2)
	x := randSamples(r, 1000, 0.3)
	rd := NewReader(bytes.NewReader(Encode(x)))
	got := make([]complex128, 600)
	n, err := rd.Read(got)
	if err != nil || n != 600 {
		t.Fatalf("first read n=%d err=%v", n, err)
	}
	if q := Quantize(x[:600]); !equal(got, q) {
		t.Fatal("first read does not match the quantized input")
	}
	n, err = rd.Read(got)
	if n != 400 || (err != nil && err != io.EOF) {
		t.Fatalf("second read n=%d err=%v", n, err)
	}
	if q := Quantize(x[600:]); !equal(got[:400], q) {
		t.Fatal("second read does not match the quantized input")
	}
	n, err = rd.Read(got)
	if n != 0 || err != io.EOF {
		t.Fatalf("third read n=%d err=%v", n, err)
	}
}

func TestReaderPartialTail(t *testing.T) {
	// A truncated stream (odd byte) must not produce a phantom sample.
	rd := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	got := make([]complex128, 4)
	n, err := rd.Read(got)
	if n != 1 {
		t.Fatalf("read %d samples from 3 bytes", n)
	}
	if err != io.EOF {
		t.Fatalf("err = %v", err)
	}
}

func equal(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
