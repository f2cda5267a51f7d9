// Package dsp implements the digital signal processing primitives that the
// rest of the GalioT reproduction is built on: FFTs, FIR filtering,
// correlation, windowing, resampling and spectral estimation, all operating
// on complex-baseband sample vectors ([]complex128).
//
// The package is pure Go with no dependencies outside the standard library.
// Algorithms favor clarity and numerical robustness over absolute speed,
// with one exception: the power-of-two FFT kernel, which carries most of
// the cloud's CPU. It runs the textbook radix-2 butterflies — the same
// twiddle bits and operand order, so the same output bits, as the plain
// stage-by-stage loop it replaced (fft_test.go keeps that loop as its
// oracle), except the payload of a NaN output, which follows the operand
// order the compiler picks — in a cache-friendly order: the bit-reversal permutation tile by
// tile, the early stages on L1-sized blocks, the later stages two per pass,
// all reading one shared twiddle table laid out stage by stage.
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
	"sync/atomic"
)

// fftBlock is the span, in points, of radix2's cache-blocked early stages:
// 2^11 complex128 values are 32 KiB, which stays resident in a 32–48 KiB
// L1d together with the twiddles those stages read. It is fixed by the
// cache, not tuned per workload.
const fftBlock = 1 << 11

// revTile fixes the order in which bitReverse visits indices: tiles of
// 2^revTile rows of 2^revTile consecutive points, whose partners form one
// other such tile. Both tiles (2 × 32 rows of 512 B = 32 KiB on 64 pages)
// stay in L1d and the TLB while they are swapped; in index order nearly
// every partner access is a new line and a new page.
const revTile = 5

// twiddles is the shared, grow-only twiddle table. Stage half = h (span 2h)
// reads its h entries at offset h-1, entry j = e^{-2πij/2h}. That value has
// the same bits for every power-of-two transform size (scaling by a power
// of two is exact), so one table serves all sizes and a smaller size reads
// a prefix of it. Growth publishes a new slice; a published one is never
// written again, so readers need no lock.
var (
	twiddles   atomic.Pointer[[]complex128]
	twiddlesMu sync.Mutex
)

// twiddlesFor returns the stage tables for every size up to n (len >= n-1).
func twiddlesFor(n int) []complex128 {
	if tw := twiddles.Load(); tw != nil && len(*tw) >= n-1 {
		return *tw
	}
	twiddlesMu.Lock()
	defer twiddlesMu.Unlock()
	var old []complex128
	if tw := twiddles.Load(); tw != nil {
		old = *tw
	}
	if len(old) >= n-1 {
		return old
	}
	tw := make([]complex128, n-1)
	copy(tw, old)
	for h := len(old) + 1; h < n; h <<= 1 {
		for j := 0; j < h; j++ {
			s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(2*h))
			tw[h-1+j] = complex(c, s)
		}
	}
	twiddles.Store(&tw)
	return tw
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
// power-of-two lengths. After the bit-reversal permutation, every stage
// spanning at most fftBlock points runs on one L1-sized block before the
// next block starts, and the remaining stages run two per pass over the
// array.
func radix2(x []complex128) {
	n := len(x)
	tw := twiddlesFor(n)
	bitReverse(x)
	b := min(n, fftBlock)
	for s := 0; s < n; s += b {
		stages(x[s:s+b], tw, 1)
	}
	stages(x, tw, b)
}

// bitReverse applies the bit-reversal permutation to x, whose length is a
// power of two, visiting the indices tile by tile (revTile).
func bitReverse(x []complex128) {
	n := len(x)
	p := bits.TrailingZeros(uint(n))
	r := min(revTile, p/2)
	for mid := 0; mid < n>>(2*r); mid++ {
		for hi := 0; hi < 1<<r; hi++ {
			row := hi<<(p-r) | mid<<r
			for i := row; i < row+1<<r; i++ {
				if j := int(bits.Reverse64(uint64(i)) >> (64 - p)); i < j {
					x[i], x[j] = x[j], x[i]
				}
			}
		}
	}
}

// stages runs the butterfly stages half = h, 2h, 4h, … < len(x) over x. A
// pass loads a, b, c, d at stride h and does stage h's two butterflies, then
// stage 2h's two; a lone last stage runs on its own.
func stages(x, tw []complex128, h int) {
	n := len(x)
	for ; 4*h <= n; h *= 4 {
		w1, w2, w3 := tw[h-1:2*h-1], tw[2*h-1:3*h-1], tw[3*h-1:4*h-1]
		for s := 0; s < n; s += 4 * h {
			// Every slice the loop indexes has len(q0), so the compiler
			// drops the loop's bounds checks.
			q0 := x[s : s+h]
			q1, q2, q3 := x[s+h:][:len(q0)], x[s+2*h:][:len(q0)], x[s+3*h:][:len(q0)]
			w1, w2, w3 := w1[:len(q0)], w2[:len(q0)], w3[:len(q0)]
			for k, a := range q0 {
				b, c, d := q1[k], q2[k], q3[k]
				t := w1[k] * b
				a, b = a+t, a-t
				t = w1[k] * d
				c, d = c+t, c-t
				t = w2[k] * c
				a, c = a+t, a-t
				t = w3[k] * d
				b, d = b+t, b-t
				q0[k], q1[k], q2[k], q3[k] = a, b, c, d
			}
		}
	}
	if 2*h == n {
		lo, hi := x[:h], x[h:]
		for k, w := range tw[h-1 : 2*h-1] {
			t := w * hi[k]
			lo[k], hi[k] = lo[k]+t, lo[k]-t
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
