// Package iq handles interchange of complex-baseband sample blocks in cu8,
// the RTL-SDR's native unsigned 8-bit interleaved I/Q format: the one
// format the system captures, ships, journals and replays.
//
// The 8-bit path matters for fidelity of the reproduction: the paper's $20
// RTL-SDR front-end quantizes to 8 bits, and the gateway ships quantized
// samples over the backhaul, so both the detector and the cloud decoder
// must work on data that has gone through this quantization.
package iq

import (
	"fmt"
	"io"
	"math"
)

// bytesPerSample is the encoded size of one complex cu8 sample.
const bytesPerSample = 2

// clamp limits v to [-1, 1].
func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Encode serializes samples (nominal full scale ±1.0) as cu8.
// Out-of-range values are clipped, exactly as an ADC would.
func Encode(samples []complex128) []byte {
	out := make([]byte, bytesPerSample*len(samples))
	for i, s := range samples {
		out[2*i] = toU8(real(s))
		out[2*i+1] = toU8(imag(s))
	}
	return out
}

// Decode deserializes cu8 data back to complex samples. The byte length
// must be even.
func Decode(data []byte) ([]complex128, error) {
	if len(data)%bytesPerSample != 0 {
		return nil, fmt.Errorf("iq: %d bytes is not a multiple of %d-byte cu8 samples", len(data), bytesPerSample)
	}
	n := len(data) / bytesPerSample
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		out[i] = complex(fromU8(data[2*i]), fromU8(data[2*i+1]))
	}
	return out, nil
}

// toU8 maps [-1, 1] to [0, 255] with 127.5 as zero, the RTL-SDR convention.
func toU8(v float64) byte {
	return byte(math.Round(clamp(v)*127.5 + 127.5))
}

// fromU8 inverts toU8.
func fromU8(b byte) float64 {
	return (float64(b) - 127.5) / 127.5
}

// Quantize passes samples through a cu8 encode/decode cycle, modeling ADC
// quantization (and clipping) without serialization overhead for the
// caller.
func Quantize(samples []complex128) []complex128 {
	out, _ := Decode(Encode(samples))
	return out
}

// Reader streams decoded sample blocks from a cu8 io.Reader.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader returns a Reader consuming cu8.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Read fills dst with decoded samples, returning the number of complete
// samples read. It returns io.EOF when the stream is exhausted.
func (r *Reader) Read(dst []complex128) (int, error) {
	need := len(dst) * bytesPerSample
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	buf := r.buf[:need]
	n, err := io.ReadFull(r.r, buf)
	n -= n % bytesPerSample
	for i := 0; i < n/bytesPerSample; i++ {
		dst[i] = complex(fromU8(buf[2*i]), fromU8(buf[2*i+1]))
	}
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return n / bytesPerSample, err
}
