package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const eps = 1e-9

func approxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

// dftNaive is the O(n²) reference DFT used to validate the fast transforms.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(ang)
			acc += x[t] * complex(c, s)
		}
		out[k] = acc
	}
	return out
}

func randomVec(r *rng.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return out
}

func TestFFTMatchesNaive(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 255, 256} {
		x := randomVec(r, n)
		got := FFT(x)
		want := dftNaive(x)
		for k := range want {
			if !approxEq(got[k], want[k], 1e-7*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

// ifft is the copying inverse transform: IFFTInPlace over a copy of x.
func ifft(x []complex128) []complex128 {
	out := Clone(x)
	IFFTInPlace(out)
	return out
}

func TestFFTInverseRoundTrip(t *testing.T) {
	t.Parallel()
	r := rng.New(2)
	for _, n := range []int{1, 2, 8, 13, 64, 100, 1024, 1000} {
		x := randomVec(r, n)
		y := ifft(FFT(x))
		for i := range x {
			if !approxEq(x[i], y[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	t.Parallel()
	r := rng.New(3)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		local := r.Split(seed)
		x := randomVec(local, n)
		y := ifft(FFT(x))
		for i := range x {
			if !approxEq(x[i], y[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	t.Parallel()
	r := rng.New(4)
	x := randomVec(r, 128)
	y := randomVec(r, 128)
	sum := make([]complex128, 128)
	for i := range sum {
		sum[i] = x[i] + 2*y[i]
	}
	fx, fy, fs := FFT(x), FFT(y), FFT(sum)
	for i := range fs {
		if !approxEq(fs[i], fx[i]+2*fy[i], 1e-7) {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	t.Parallel()
	r := rng.New(5)
	for _, n := range []int{64, 100, 333} {
		x := randomVec(r, n)
		fx := FFT(x)
		if timeE, freqE := Energy(x), Energy(fx)/float64(n); math.Abs(timeE-freqE) > 1e-6*timeE {
			t.Fatalf("n=%d Parseval violated: %v vs %v", n, timeE, freqE)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	t.Parallel()
	x := make([]complex128, 16)
	x[0] = 1
	fx := FFT(x)
	for i, v := range fx {
		if !approxEq(v, 1, eps) {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTToneBin(t *testing.T) {
	t.Parallel()
	// A pure tone at bin k must concentrate all energy in bin k.
	const n = 64
	for _, k := range []int{0, 1, 5, 31, 32, 63} {
		x := make([]complex128, n)
		for i := range x {
			ang := 2 * math.Pi * float64(k) * float64(i) / float64(n)
			s, c := math.Sincos(ang)
			x[i] = complex(c, s)
		}
		fx := FFT(x)
		idx, mag := MaxAbs(fx)
		if idx != k {
			t.Fatalf("tone at bin %d detected at %d", k, idx)
		}
		if math.Abs(mag-float64(n)) > 1e-8 {
			t.Fatalf("tone magnitude %v, want %v", mag, n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	t.Parallel()
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randomVec(rng.New(1), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Clone(x)
		FFTInPlace(buf)
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := randomVec(rng.New(1), 4096)
	for i := 0; i < b.N; i++ {
		buf := Clone(x)
		FFTInPlace(buf)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := randomVec(rng.New(1), 1000)
	for i := 0; i < b.N; i++ {
		buf := Clone(x)
		FFTInPlace(buf)
	}
}
