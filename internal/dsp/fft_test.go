package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
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

// parentRadix2 is radix2 as it was before the cache-aware rewrite — the
// per-size strided twiddle table and one full-array pass per stage — kept
// as the oracle the rewrite must match bit for bit.
func parentRadix2(x []complex128) {
	n := len(x)
	twiddle := make([]complex128, n/2)
	for k := range twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		twiddle[k] = complex(c, s)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := twiddle[tw]
				tw += step
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
			}
		}
	}
}

// sameAsParent transforms copies of x with radix2 and parentRadix2 and
// reports the first bin whose bits differ (-1 if none). A NaN matches any
// NaN: when both operands of an add are NaN, x86 returns the payload of the
// instruction's first source, and the compiler commutes a+b differently in
// the two kernels (n = 16 already gives different payloads), so only that
// an output is NaN is pinned, not which NaN.
func sameAsParent(x []complex128) (int, complex128, complex128) {
	got, want := Clone(x), Clone(x)
	radix2(got)
	parentRadix2(want)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for k := range got {
		if !same(real(got[k]), real(want[k])) || !same(imag(got[k]), imag(want[k])) {
			return k, got[k], want[k]
		}
	}
	return -1, 0, 0
}

// TestRadix2MatchesParentBits pins the rewrite to the parent kernel at
// every size 2^1…2^21, on Gaussian data and on data sprinkled with ±0, ±Inf,
// NaN and subnormals; up to 2^15 also on data made only of subnormals and
// zeros (x86 runs subnormal arithmetic ~20× slower, which makes larger
// sizes cost seconds each).
func TestRadix2MatchesParentBits(t *testing.T) {
	twiddles.Store(nil)
	subnormals := []float64{5e-324, -5e-324, 1.5e-310, -2.2e-309}
	specials := append([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1}, subnormals...)
	r := rng.New(6)
	for p := 1; p <= 21; p++ {
		n := 1 << p
		cases := map[string][]complex128{"gauss": randomVec(r, n)}
		sprinkled := Clone(cases["gauss"])
		for i := range sprinkled {
			re, im := real(sprinkled[i]), imag(sprinkled[i])
			if i%5 == 0 {
				re = specials[(i/5)%len(specials)]
			}
			if i%7 == 0 {
				im = specials[(i/7+3)%len(specials)]
			}
			sprinkled[i] = complex(re, im)
		}
		cases["sprinkled"] = sprinkled
		if p <= 15 {
			tiny := make([]complex128, n)
			for i := range tiny {
				// i%3 == 0 and i%5 == 0 give ±0 (the sign of the subnormal).
				tiny[i] = complex(float64(i%3)*subnormals[i%4], float64(i%5)*subnormals[(i+1)%4])
			}
			cases["tiny"] = tiny
		}
		for name, x := range cases {
			if k, got, want := sameAsParent(x); k >= 0 {
				t.Fatalf("n=%d %s: bin %d = %v, parent kernel %v", n, name, k, got, want)
			}
		}
	}
}

// FuzzFFTMatchesParent checks radix2 against the parent kernel at length
// 2^(b%13) on fuzz-chosen IEEE bit patterns (8 input bytes per float64,
// cycled).
func FuzzFFTMatchesParent(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(12), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(11), []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, b uint8, data []byte) {
		x := make([]complex128, 1<<(b%13))
		if len(data) > 0 {
			word := func(i int) float64 {
				var u uint64
				for j := 0; j < 8; j++ {
					u |= uint64(data[(8*i+j)%len(data)]) << (8 * j)
				}
				return math.Float64frombits(u)
			}
			for i := range x {
				x[i] = complex(word(2*i), word(2*i+1))
			}
		}
		if k, got, want := sameAsParent(x); k >= 0 {
			t.Fatalf("n=%d: bin %d = %v, parent kernel %v", len(x), k, got, want)
		}
	})
}

func TestFFTInPlaceWarmAllocatesNothing(t *testing.T) {
	for _, n := range []int{2, 1024, 1 << 16} {
		x := randomVec(rng.New(7), n)
		FFTInPlace(x)
		if a := testing.AllocsPerRun(10, func() { FFTInPlace(x) }); a != 0 {
			t.Fatalf("n=%d: FFTInPlace allocates %v times per call when warm", n, a)
		}
	}
}

// TestFFTConcurrentWhileTwiddlesGrow runs eight sizes at once from an empty
// twiddle table, so some transforms read it while others grow it; each
// result must equal the serial transform bit for bit.
func TestFFTConcurrentWhileTwiddlesGrow(t *testing.T) {
	const workers = 8
	r := rng.New(8)
	xs, want := make([][]complex128, workers), make([][]complex128, workers)
	for g := range xs {
		xs[g] = randomVec(r, 1<<(8+g))
		want[g] = Clone(xs[g])
		FFTInPlace(want[g])
	}
	for rep := 0; rep < 3; rep++ {
		twiddles.Store(nil)
		var wg sync.WaitGroup
		errs := make(chan int, workers)
		for g := workers - 1; g >= 0; g-- {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := Clone(xs[g])
				FFTInPlace(got)
				if !sameBits(got, want[g]) {
					errs <- len(got)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for n := range errs {
			t.Fatalf("n=%d: concurrent transform differs from the serial one", n)
		}
	}
}

// BenchmarkFFT times FFTInPlace at the power-of-two sizes 2^10…2^20 and at
// 51 264 points, the Bluestein size of the kill-filter stage. Each op
// includes one copy of the input into the work buffer.
func BenchmarkFFT(b *testing.B) {
	sizes := []int{51264}
	for p := 10; p <= 20; p++ {
		sizes = append(sizes, 1<<p)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := randomVec(rng.New(1), n)
			buf := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				FFTInPlace(buf)
			}
		})
	}
}
