package dsp

import "math"

// FIR is a finite-impulse-response filter described by its real tap weights.
type FIR struct {
	Taps []float64
}

// Sinc returns sin(πx)/(πx) with the removable singularity handled.
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// LowPass designs a windowed-sinc low-pass FIR filter with the given cutoff
// frequency (Hz), sample rate (Hz) and odd tap count, using a Hamming
// window. Taps are normalized to unit DC gain.
func LowPass(cutoff, sampleRate float64, taps int) FIR {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	fc := cutoff / sampleRate
	mid := taps / 2
	h := make([]float64, taps)
	var sum float64
	for i := range h {
		n := float64(i - mid)
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = 2 * fc * Sinc(2*fc*n) * w
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return FIR{Taps: h}
}

// Gaussian designs a Gaussian pulse-shaping filter with the given
// bandwidth-time product bt, spanning span symbol periods at sps samples per
// symbol. This is the shaping filter used by GFSK transmitters (bt = 0.5 for
// XBee-class radios, 0.3 for BLE-class). Taps are normalized to unit sum so
// that filtering a constant stream preserves its level.
func Gaussian(bt float64, sps, span int) FIR {
	if span < 1 {
		span = 1
	}
	n := span*sps + 1
	mid := n / 2
	// Standard Gaussian filter: h(t) ∝ exp(-2π²B²t²/ln 2) with B = bt/T.
	alpha := 2 * math.Pi * math.Pi * bt * bt / math.Ln2
	h := make([]float64, n)
	var sum float64
	for i := range h {
		t := float64(i-mid) / float64(sps) // in symbol periods
		h[i] = math.Exp(-alpha * t * t)
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return FIR{Taps: h}
}

// ApplyComplex filters a complex vector with "same" alignment: the output
// has the same length as the input and is aligned so that the filter's group
// delay is removed (for symmetric filters).
func (f FIR) ApplyComplex(x []complex128) []complex128 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		return Clone(x)
	}
	full := convolveComplex(x, f.Taps)
	off := (k - 1) / 2
	out := make([]complex128, n)
	copy(out, full[off:off+n])
	return out
}

// ApplyReal filters a real vector with "same" alignment.
func (f FIR) ApplyReal(x []float64) []float64 {
	n := len(x)
	k := len(f.Taps)
	if n == 0 || k == 0 {
		out := make([]float64, n)
		copy(out, x)
		return out
	}
	full := make([]float64, n+k-1)
	for i, t := range f.Taps {
		if t == 0 {
			continue
		}
		for j, v := range x {
			full[i+j] += t * v
		}
	}
	off := (k - 1) / 2
	out := make([]float64, n)
	copy(out, full[off:off+n])
	return out
}

// convolveComplex computes the full linear convolution of x with real taps
// h, choosing a direct or FFT method by size.
func convolveComplex(x []complex128, h []float64) []complex128 {
	n, k := len(x), len(h)
	outLen := n + k - 1
	// Direct method for small work; FFT overlap otherwise.
	if n*k <= 1<<16 {
		out := make([]complex128, outLen)
		for i, t := range h {
			if t == 0 {
				continue
			}
			ct := complex(t, 0)
			for j, v := range x {
				out[i+j] += ct * v
			}
		}
		return out
	}
	m := NextPow2(outLen)
	ch := make([]complex128, k)
	for i, t := range h {
		ch[i] = complex(t, 0)
	}
	fh := memo.padded(ch, m)
	fx := paddedFFT(x, m)
	for i := range fx {
		fx[i] *= fh[i]
	}
	IFFTInPlace(fx)
	return fx[:outLen]
}

// MovingAverage returns the centered moving average of x over a window of
// the given odd width (even widths are rounded up).
func MovingAverage(x []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(x))
	var sum float64
	count := 0
	for i := 0; i < len(x); i++ {
		if i == 0 {
			for j := 0; j <= half && j < len(x); j++ {
				sum += x[j]
				count++
			}
		} else {
			if add := i + half; add < len(x) {
				sum += x[add]
				count++
			}
			if rem := i - half - 1; rem >= 0 {
				sum -= x[rem]
				count--
			}
		}
		out[i] = sum / float64(count)
	}
	return out
}
