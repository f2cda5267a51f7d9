package dsp

import (
	"math"
	"slices"
)

// CrossCorrelate returns the sliding cross-correlation of x against the
// reference template ref:
//
//	out[k] = Σ_j x[k+j] · conj(ref[j]),  k in [0, len(x)-len(ref)]
//
// This is the matched-filter output used for preamble detection. The method
// switches to FFT-based correlation for large inputs. It returns nil when
// ref is longer than x or either is empty.
func CrossCorrelate(x, ref []complex128) []complex128 {
	var out []complex128
	// A lone template is never handed scratch, so its result can be kept.
	correlateEach(x, [][]complex128{ref}, func(_ int, corr []complex128) { out = corr })
	return out
}

// correlateEach calls use(i, CrossCorrelate(x, refs[i])) for every ref whose
// correlation is defined, in no particular order. Templates on the FFT path
// are taken in groups of one FFT size: x is transformed once per group and
// every template's spectrum comes from the memo. The last template of a
// group multiplies into the transform of x in place; the others get
// scratch, which use must not keep.
func correlateEach(x []complex128, refs [][]complex128, use func(i int, corr []complex128)) {
	n := len(x)
	fftSize := func(ref []complex128) int { // 0 off the FFT path
		if k := len(ref); k > 0 && n >= k && n*k > 1<<17 {
			return NextPow2(n + k - 1)
		}
		return 0
	}
	var scratch []complex128
	for i, ref := range refs {
		k := len(ref)
		if k == 0 || n < k {
			continue
		}
		if n*k <= 1<<17 {
			use(i, correlateDirect(x, ref))
			continue
		}
		// FFT method: linear cross-correlation equals IFFT(X · conj(R))
		// after zero-padding both vectors to at least n+k-1.
		m := fftSize(ref)
		left := 0
		for j, r := range refs {
			if fftSize(r) == m {
				if j < i {
					left = -1 // this size's group is done
					break
				}
				left++
			}
		}
		if left < 0 {
			continue
		}
		fx := paddedFFT(x, m)
		for j := i; left > 0; j++ {
			if fftSize(refs[j]) != m {
				continue
			}
			left--
			prod := fx
			if left > 0 {
				scratch = slices.Grow(scratch[:0], m)[:m]
				prod = scratch
			}
			fr := memo.padded(refs[j], m)
			for b, v := range fx {
				prod[b] = v * complex(real(fr[b]), -imag(fr[b]))
			}
			IFFTInPlace(prod)
			// Correlation lag k corresponds to output index k.
			use(j, prod[:n-len(refs[j])+1])
		}
	}
}

// correlateDirect is the O(n·k) sliding correlation, cheaper than the FFT
// path for short inputs.
func correlateDirect(x, ref []complex128) []complex128 {
	k := len(ref)
	out := make([]complex128, len(x)-k+1)
	for i := range out {
		out[i] = Dot(x[i:i+k], ref)
	}
	return out
}

// paddedFFT returns the m-point FFT of x zero-padded to m.
func paddedFFT(x []complex128, m int) []complex128 {
	out := make([]complex128, m)
	copy(out, x)
	FFTInPlace(out)
	return out
}

// NormalizedCorrelate returns |CrossCorrelate| normalized by the local
// energy of x and the energy of ref, giving values in [0, 1] where 1 means a
// perfect (scaled) match. This normalization makes the detector threshold
// independent of signal and noise power, which is what lets the GalioT
// gateway detect packets buried below the noise floor without tracking the
// noise level.
func NormalizedCorrelate(x, ref []complex128) []float64 {
	return NormalizedCorrelateAll(x, ref)[0]
}

// NormalizedCorrelateAll returns NormalizedCorrelate(x, ref) for every ref
// (nil where a ref is empty or longer than x), transforming x once per FFT
// size rather than once per template — the shape of classifying one
// capture against a bank of preambles.
func NormalizedCorrelateAll(x []complex128, refs ...[]complex128) [][]float64 {
	out := make([][]float64, len(refs))
	correlateEach(x, refs, func(i int, corr []complex128) { out[i] = normalize(x, refs[i], corr) })
	return out
}

// normalize turns the correlation of x against ref into |corr| over the
// root of the window and template energies.
func normalize(x, ref, corr []complex128) []float64 {
	n, k := len(x), len(ref)
	out := make([]float64, len(corr))
	refE := Energy(ref)
	if refE == 0 {
		return out
	}
	// Sliding window energy of x.
	var winE float64
	for j := 0; j < k; j++ {
		v := x[j]
		winE += real(v)*real(v) + imag(v)*imag(v)
	}
	for i := range out {
		den := math.Sqrt(winE * refE)
		if den > 0 {
			c := corr[i]
			out[i] = math.Hypot(real(c), imag(c)) / den
		}
		if i+k < n {
			a, b := x[i+k], x[i]
			winE += real(a)*real(a) + imag(a)*imag(a)
			winE -= real(b)*real(b) + imag(b)*imag(b)
			if winE < 0 {
				winE = 0
			}
		}
	}
	return out
}

// NormalizedCorrelateReal returns the sliding normalized cross-correlation
// of the real sequence x against template ref, with the local mean of each
// window (and the template mean) removed first:
//
//	out[k] = Σ (x[k+j]-μx)(ref[j]-μr) / √(Σ(x[k+j]-μx)² · Σ(ref[j]-μr)²)
//
// Values lie in [-1, 1]. Mean removal makes the metric invariant to any DC
// offset of x — exactly what frequency-discriminator synchronization needs,
// since a carrier frequency offset appears there as a constant bias.
func NormalizedCorrelateReal(x, ref []float64) []float64 {
	n, k := len(x), len(ref)
	if k == 0 || n < k {
		return nil
	}
	var refMean float64
	for _, v := range ref {
		refMean += v
	}
	refMean /= float64(k)
	refC := make([]float64, k)
	var refE float64
	for i, v := range ref {
		refC[i] = v - refMean
		refE += refC[i] * refC[i]
	}
	outLen := n - k + 1
	out := make([]float64, outLen)
	if refE == 0 {
		return out
	}
	// All sliding dot products at once via FFT correlation. Since
	// Σ refC = 0, Σ x·refC equals Σ (x-μ)·refC for any window mean μ.
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	cr := make([]complex128, k)
	for i, v := range refC {
		cr[i] = complex(v, 0)
	}
	dots := CrossCorrelate(cx, cr)
	// sliding sums for window mean and energy
	var winSum, winSq float64
	for j := 0; j < k; j++ {
		winSum += x[j]
		winSq += x[j] * x[j]
	}
	for i := 0; i < outLen; i++ {
		mu := winSum / float64(k)
		winE := winSq - float64(k)*mu*mu
		if winE > 0 {
			out[i] = real(dots[i]) / math.Sqrt(winE*refE)
		}
		if i+k < n {
			a, b := x[i+k], x[i]
			winSum += a - b
			winSq += a*a - b*b
		}
	}
	return out
}

// Peak describes a local maximum in a detection metric.
type Peak struct {
	Index int     // sample index of the maximum
	Value float64 // metric value at the maximum
}

// FindPeaks returns all local maxima of metric that exceed threshold, with
// non-maximum suppression over a guard of minDistance samples: of any two
// peaks closer than minDistance, only the larger survives. Peaks are
// returned in index order.
func FindPeaks(metric []float64, threshold float64, minDistance int) []Peak {
	if minDistance < 1 {
		minDistance = 1
	}
	var peaks []Peak
	for i := range metric {
		v := metric[i]
		if v < threshold {
			continue
		}
		// local maximum over [i-1, i+1]
		if i > 0 && metric[i-1] > v {
			continue
		}
		if i+1 < len(metric) && metric[i+1] >= v {
			continue
		}
		if n := len(peaks); n > 0 && i-peaks[n-1].Index < minDistance {
			if v > peaks[n-1].Value {
				peaks[n-1] = Peak{Index: i, Value: v}
			}
			continue
		}
		peaks = append(peaks, Peak{Index: i, Value: v})
	}
	return peaks
}

// MaxPeak returns the global maximum of metric as a Peak, or a Peak with
// Index -1 if metric is empty.
func MaxPeak(metric []float64) Peak {
	best := Peak{Index: -1}
	for i, v := range metric {
		if v > best.Value || best.Index < 0 {
			best = Peak{Index: i, Value: v}
		}
	}
	return best
}

// ParabolicInterp refines a peak location using three-point parabolic
// interpolation around index i of metric. It returns the fractional offset
// in (-0.5, 0.5) to add to i; 0 when i is at a boundary or the curvature is
// degenerate.
func ParabolicInterp(metric []float64, i int) float64 {
	if i <= 0 || i+1 >= len(metric) {
		return 0
	}
	a, b, c := metric[i-1], metric[i], metric[i+1]
	den := a - 2*b + c
	if den == 0 {
		return 0
	}
	d := 0.5 * (a - c) / den
	if d > 0.5 {
		d = 0.5
	} else if d < -0.5 {
		d = -0.5
	}
	return d
}
