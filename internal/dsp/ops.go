package dsp

import "math"

// Energy returns the sum of |x[i]|² over the vector.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Dot returns the inner product Σ x[i]·conj(y[i]) over the shorter of the
// two lengths: the unnormalised projection of x onto y.
func Dot(x, y []complex128) complex128 {
	y = y[:min(len(x), len(y))]
	x = x[:len(y)]
	var acc complex128
	for i, v := range y {
		acc += x[i] * complex(real(v), -imag(v))
	}
	return acc
}

// Power returns the mean of |x[i]|² (average power). It returns 0 for an
// empty vector.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// Scale multiplies every sample by the real gain g in place and returns x.
func Scale(x []complex128, g float64) []complex128 {
	for i := range x {
		x[i] = complex(real(x[i])*g, imag(x[i])*g)
	}
	return x
}

// ScaleComplex multiplies every sample by the complex gain g in place and
// returns x.
func ScaleComplex(x []complex128, g complex128) []complex128 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// Normalize scales x in place to unit average power and returns x. A zero
// vector is returned unchanged.
func Normalize(x []complex128) []complex128 {
	p := Power(x)
	if p == 0 {
		return x
	}
	return Scale(x, 1/math.Sqrt(p))
}

// Add accumulates src into dst element-wise starting at dst[offset]. Samples
// of src that would fall outside dst are ignored; negative offsets clip the
// head of src. It returns dst.
func Add(dst, src []complex128, offset int) []complex128 {
	start := 0
	if offset < 0 {
		start = -offset
		offset = 0
	}
	for i := start; i < len(src); i++ {
		j := offset + i - start
		if j >= len(dst) {
			break
		}
		dst[j] += src[i]
	}
	return dst
}

// Sub subtracts src from dst element-wise starting at dst[offset], with the
// same clipping rules as Add. It returns dst.
func Sub(dst, src []complex128, offset int) []complex128 {
	start := 0
	if offset < 0 {
		start = -offset
		offset = 0
	}
	for i := start; i < len(src); i++ {
		j := offset + i - start
		if j >= len(dst) {
			break
		}
		dst[j] -= src[i]
	}
	return dst
}

// Conj returns the complex conjugate of x in a new slice.
func Conj(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(real(v), -imag(v))
	}
	return out
}

// Clone returns a copy of x.
func Clone(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	return out
}

// Mix multiplies x in place by a complex exponential of the given frequency
// (Hz) and initial phase (radians) at the given sample rate, shifting the
// spectrum by +freq. It returns x.
func Mix(x []complex128, freq, phase, sampleRate float64) []complex128 {
	if freq == 0 && phase == 0 {
		return x
	}
	// Use a recurrence (rotator) for speed; renormalize periodically to
	// contain numerical drift.
	s, c := math.Sincos(phase)
	cur := complex(c, s)
	ds, dc := math.Sincos(2 * math.Pi * freq / sampleRate)
	step := complex(dc, ds)
	for i := range x {
		x[i] *= cur
		cur *= step
		if i&1023 == 1023 {
			mag := math.Hypot(real(cur), imag(cur))
			cur = complex(real(cur)/mag, imag(cur)/mag)
		}
	}
	return x
}

// Tone returns n samples of a complex exponential at the given frequency
// (Hz) and initial phase (radians) at the given sample rate.
func Tone(n int, freq, phase, sampleRate float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = 1
	}
	return Mix(out, freq, phase, sampleRate)
}

// MaxAbs returns the index and magnitude of the sample with the largest
// absolute value. It returns (-1, 0) for an empty vector.
func MaxAbs(x []complex128) (idx int, mag float64) {
	idx = -1
	for i, v := range x {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > mag {
			mag, idx = m, i
		}
	}
	return idx, math.Sqrt(mag)
}

// Abs returns |x[i]| in a new float64 slice.
func Abs(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Hypot(real(v), imag(v))
	}
	return out
}

// AbsSq returns |x[i]|² in a new float64 slice.
func AbsSq(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return out
}

// Phase returns the instantaneous phase (radians, in (-π, π]) of each sample.
func Phase(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Atan2(imag(v), real(v))
	}
	return out
}

// FreqDiscriminator returns the per-sample instantaneous frequency estimate
// f[i] = angle(x[i] · conj(x[i-1])) · sampleRate / 2π, the standard
// polar discriminator used for FSK demodulation. The output has length
// len(x)-1 (or 0 for shorter inputs).
func FreqDiscriminator(x []complex128, sampleRate float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	k := sampleRate / (2 * math.Pi)
	for i := 1; i < len(x); i++ {
		p := x[i] * complex(real(x[i-1]), -imag(x[i-1]))
		out[i-1] = math.Atan2(imag(p), real(p)) * k
	}
	return out
}
