// Package dsp implements the digital signal processing primitives that the
// rest of the GalioT reproduction is built on: FFTs, FIR filtering,
// correlation, windowing, resampling and spectral estimation, all operating
// on complex-baseband sample vectors ([]complex128).
//
// The package is pure Go with no dependencies outside the standard library.
// Algorithms favor clarity and numerical robustness over absolute speed, but
// the FFT-based paths (correlation, filtering of long vectors) are fast
// enough to run the paper's full SNR sweeps in seconds.
//
// Spectra of fixed operands — correlation templates, FIR taps, Bluestein
// kernels — are computed once and kept in a process-wide memo. The reuse
// is exact: a hit is confirmed bit for bit against a private copy of the
// operand and returns the very slice a fresh transform would produce, so
// no output depends on what the memo holds. The memo is bounded by a byte
// budget with least-recently-used eviction, and it lives here rather than
// in caller state because no caller keeps state across calls: the cloud
// builds a decoder per segment and concurrent farm workers share the PHYs.
package dsp

import (
	"math"
	"math/bits"
	"sync"
)

// fftPlan caches the twiddle factors and bit-reversal permutation for a
// power-of-two FFT of a fixed size.
type fftPlan struct {
	n       int
	twiddle []complex128 // e^{-2πik/n} for k in [0, n/2)
	rev     []int
}

var planCache sync.Map // map[int]*fftPlan

func getPlan(n int) *fftPlan {
	if p, ok := planCache.Load(n); ok {
		return p.(*fftPlan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*fftPlan)
}

func newPlan(n int) *fftPlan {
	p := &fftPlan{n: n}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.twiddle[k] = complex(c, s)
	}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n. It panics for n <= 0.
func NextPow2(n int) int {
	if n <= 0 {
		panic("dsp: NextPow2 of non-positive length")
	}
	if IsPow2(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any length is accepted: powers of two use an in-place radix-2
// algorithm, other lengths use Bluestein's algorithm (so the cost stays
// O(n log n)).
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	FFTInPlace(out)
	return out
}

// FFTInPlace computes the DFT of x in place.
func FFTInPlace(x []complex128) {
	n := len(x)
	switch {
	case n <= 1:
	case IsPow2(n):
		radix2(x)
	default:
		bluestein(x)
	}
}

// IFFTInPlace computes the inverse DFT of x in place (with 1/n scaling).
func IFFTInPlace(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// IFFT(x) = conj(FFT(conj(x))) / n
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	FFTInPlace(x)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// radix2 is the iterative Cooley-Tukey decimation-in-time FFT for
// power-of-two lengths.
func radix2(x []complex128) {
	n := len(x)
	p := getPlan(n)
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				tw += step
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, which is in
// turn computed with power-of-two FFTs (chirp-z transform). The chirp and
// the kernel spectrum depend only on n, so they come from the memo.
func bluestein(x []complex128) {
	n := len(x)
	m := NextPow2(2*n - 1)
	w, kernel := memo.bluesteinKernel(n, m)

	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
	}
	radix2(a)
	for i := range a {
		a[i] *= kernel[i]
	}
	// inverse FFT of a, power-of-two length
	for i := range a {
		a[i] = complex(real(a[i]), -imag(a[i]))
	}
	radix2(a)
	inv := 1 / float64(m)
	for i := range a {
		a[i] = complex(real(a[i])*inv, -imag(a[i])*inv)
	}
	for k := 0; k < n; k++ {
		x[k] = a[k] * w[k]
	}
}
