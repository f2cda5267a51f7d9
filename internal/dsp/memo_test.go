package dsp

import (
	"container/list"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// The ref* functions are the bodies CrossCorrelate, NormalizedCorrelate,
// NormalizedCorrelateReal, convolveComplex and bluestein had before the
// spectrum memo and the shared input transform. They recompute every
// spectrum on every call and are the oracles the memoised paths must match
// bit for bit.

func refCrossCorrelate(x, ref []complex128) []complex128 {
	n, k := len(x), len(ref)
	if k == 0 || n < k {
		return nil
	}
	outLen := n - k + 1
	if n*k <= 1<<17 {
		out := make([]complex128, outLen)
		for i := 0; i < outLen; i++ {
			var acc complex128
			seg := x[i : i+k]
			for j, r := range ref {
				acc += seg[j] * complex(real(r), -imag(r))
			}
			out[i] = acc
		}
		return out
	}
	m := NextPow2(n + k - 1)
	fx := make([]complex128, m)
	copy(fx, x)
	fr := make([]complex128, m)
	copy(fr, ref)
	refFFTInPlace(fx)
	refFFTInPlace(fr)
	for i := range fx {
		fx[i] *= complex(real(fr[i]), -imag(fr[i]))
	}
	refIFFTInPlace(fx)
	out := make([]complex128, outLen)
	copy(out, fx[:outLen])
	return out
}

func refNormalizedCorrelate(x, ref []complex128) []float64 {
	n, k := len(x), len(ref)
	corr := refCrossCorrelate(x, ref)
	if corr == nil {
		return nil
	}
	refE := Energy(ref)
	if refE == 0 {
		return make([]float64, len(corr))
	}
	out := make([]float64, len(corr))
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

func refNormalizedCorrelateReal(x, ref []float64) []float64 {
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
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	cr := make([]complex128, k)
	for i, v := range refC {
		cr[i] = complex(v, 0)
	}
	dots := refCrossCorrelate(cx, cr)
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

func refConvolveComplex(x []complex128, h []float64) []complex128 {
	n, k := len(x), len(h)
	outLen := n + k - 1
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
	fx := make([]complex128, m)
	copy(fx, x)
	fh := make([]complex128, m)
	for i, t := range h {
		fh[i] = complex(t, 0)
	}
	refFFTInPlace(fx)
	refFFTInPlace(fh)
	for i := range fx {
		fx[i] *= fh[i]
	}
	refIFFTInPlace(fx)
	return fx[:outLen]
}

func refBluestein(x []complex128) {
	n := len(x)
	m := NextPow2(2*n - 1)
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		j := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(j) / float64(n))
		w[k] = complex(c, s)
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		bc := complex(real(w[k]), -imag(w[k]))
		b[k] = bc
		if k > 0 {
			b[m-k] = bc
		}
	}
	parentRadix2(a)
	parentRadix2(b)
	for i := range a {
		a[i] *= b[i]
	}
	for i := range a {
		a[i] = complex(real(a[i]), -imag(a[i]))
	}
	parentRadix2(a)
	inv := 1 / float64(m)
	for i := range a {
		a[i] = complex(real(a[i])*inv, -imag(a[i])*inv)
	}
	for k := 0; k < n; k++ {
		x[k] = a[k] * w[k]
	}
}

// refFFTInPlace and refIFFTInPlace are FFTInPlace and IFFTInPlace over the
// reference Bluestein.
func refFFTInPlace(x []complex128) {
	switch n := len(x); {
	case n <= 1:
	case IsPow2(n):
		parentRadix2(x)
	default:
		refBluestein(x)
	}
}

func refIFFTInPlace(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	refFFTInPlace(x)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// reset empties the memo, so the next call runs cold.
func (c *spectrumMemo) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[memoKey]*list.Element)
	c.lru.Init()
	c.used = 0
}

// stats reports the entry count and retained bytes, checking that the
// running byte count matches the entries it accounts for.
func (c *spectrumMemo) stats(t *testing.T) (entries, used int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*memoEntry).bytes()
	}
	if sum != c.used || len(c.entries) != c.lru.Len() {
		t.Fatalf("memo accounting: used %d, entries sum to %d; map %d, list %d", c.used, sum, len(c.entries), c.lru.Len())
	}
	return len(c.entries), c.used
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func mustSame(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if (got == nil) != (want == nil) || !sameBits(got, want) {
		t.Fatalf("%s: not bit-identical to the reference (len %d vs %d)", what, len(got), len(want))
	}
}

// twice runs fn on a cold memo and again on the memo it warmed.
func twice(fn func(pass string)) {
	memo.reset()
	fn("cold")
	fn("warm")
}

func TestCorrelationsMatchReferenceExactly(t *testing.T) {
	r := rng.New(11)
	cases := []struct{ n, k int }{
		{512, 64},    // direct path
		{1000, 700},  // FFT path, template nearly as long as x
		{20000, 300}, // FFT path, long input
		{5000, 5000}, // one lag
		{100, 400},   // template longer than x: nil
		{3000, 0},    // empty template: nil
	}
	for _, c := range cases {
		x, ref := randomVec(r, c.n), randomVec(r, c.k)
		xr, refr := make([]float64, c.n), make([]float64, c.k)
		for i := range xr {
			xr[i] = r.NormFloat64() + 0.3
		}
		for i := range refr {
			refr[i] = r.NormFloat64()
		}
		twice(func(pass string) {
			mustSame(t, pass+" CrossCorrelate", CrossCorrelate(x, ref), refCrossCorrelate(x, ref))
			if got, want := NormalizedCorrelate(x, ref), refNormalizedCorrelate(x, ref); !sameFloats(got, want) {
				t.Fatalf("%s NormalizedCorrelate n=%d k=%d differs", pass, c.n, c.k)
			}
			if got, want := NormalizedCorrelateReal(xr, refr), refNormalizedCorrelateReal(xr, refr); !sameFloats(got, want) {
				t.Fatalf("%s NormalizedCorrelateReal n=%d k=%d differs", pass, c.n, c.k)
			}
		})
	}

	// A bank sharing x: templates at two FFT sizes, a repeat, one on the
	// direct path, one longer than x and one of zero energy.
	x := randomVec(r, 30000)
	refs := [][]complex128{randomVec(r, 1200), randomVec(r, 3), randomVec(r, 9000), nil, randomVec(r, 40000), make([]complex128, 500)}
	refs = append(refs, refs[0])
	twice(func(pass string) {
		got := NormalizedCorrelateAll(x, refs...)
		for i, ref := range refs {
			if !sameFloats(got[i], refNormalizedCorrelate(x, ref)) {
				t.Fatalf("%s NormalizedCorrelateAll ref %d (len %d) differs", pass, i, len(ref))
			}
		}
	})
}

func TestFIRMatchesReferenceExactly(t *testing.T) {
	r := rng.New(12)
	lp := LowPass(100e3, 1e6, 129)
	for _, n := range []int{300, 3000, 70000} {
		x := randomVec(r, n)
		twice(func(pass string) {
			mustSame(t, pass+" convolveComplex", convolveComplex(x, lp.Taps), refConvolveComplex(x, lp.Taps))
			want := refConvolveComplex(x, lp.Taps)[64 : 64+n]
			mustSame(t, pass+" ApplyComplex", lp.ApplyComplex(x), want)
		})
	}
}

func TestBluesteinMatchesReferenceExactly(t *testing.T) {
	r := rng.New(13)
	for _, n := range []int{3, 1000, 51264} {
		x := randomVec(r, n)
		want := Clone(x)
		refFFTInPlace(want)
		wantInv := Clone(x)
		refIFFTInPlace(wantInv)
		twice(func(pass string) {
			mustSame(t, pass+" FFT", FFT(x), want)
			mustSame(t, pass+" IFFT", ifft(x), wantInv)
		})
	}
}

func TestMemoStaysWithinBudget(t *testing.T) {
	t.Parallel()
	const budget = 1 << 20
	c := newSpectrumMemo(budget)
	r := rng.New(14)
	op := randomVec(r, 1000)
	for n := 1; n <= 1000; n++ {
		spec := c.padded(op[:n], NextPow2(n+100))
		if len(spec) != NextPow2(n+100) {
			t.Fatalf("n=%d: spectrum length %d", n, len(spec))
		}
		c.bluesteinKernel(n+1, NextPow2(2*(n+1)-1))
		if _, used := c.stats(t); used > budget {
			t.Fatalf("after %d lengths the memo retains %d bytes, budget %d", n, used, budget)
		}
	}
	// An entry larger than the whole budget is computed but not retained.
	c.padded(randomVec(r, 10), budget)
	if _, used := c.stats(t); used > budget {
		t.Fatalf("oversized entry retained: %d bytes", used)
	}
	if _, used := memo.stats(t); used > memoBudget {
		t.Fatalf("process memo retains %d bytes, budget %d", used, memoBudget)
	}
}

func TestMemoKeepsPrivateCopy(t *testing.T) {
	t.Parallel()
	r := rng.New(15)
	x, tmpl := randomVec(r, 4000), randomVec(r, 200)
	first := CrossCorrelate(x, tmpl)
	// Mutating the caller's template must not reach the memo: a later call
	// with the mutated template sees the mutation, and restoring it brings
	// back the first result exactly.
	saved := tmpl[17]
	tmpl[17] += 1
	mustSame(t, "mutated template", CrossCorrelate(x, tmpl), refCrossCorrelate(x, tmpl))
	tmpl[17] = saved
	mustSame(t, "restored template", CrossCorrelate(x, tmpl), first)

	// The entry keeps serving the operand it was built from after the
	// caller overwrites its own slice.
	c := newSpectrumMemo(1 << 20)
	op := randomVec(r, 8)
	orig := Clone(op)
	spec := c.padded(op, 16)
	op[3] = 0
	if again := c.padded(orig, 16); &again[0] != &spec[0] {
		t.Fatal("the memo's copy of the operand changed with the caller's slice")
	}

	// A key collision is not a hit: the stored operand must match bit for
	// bit, down to the sign of a zero.
	a := make([]complex128, 8)
	c.padded(a, 16)
	key := memoKey{m: 16, n: 8, hash: hashBits(a)}
	if c.lookup(key, a) == nil {
		t.Fatal("identical operand missed")
	}
	b := make([]complex128, 8)
	b[3] = complex(math.Copysign(0, -1), 0)
	if c.lookup(key, b) != nil {
		t.Fatal("an operand differing in one bit hit the stored entry")
	}
}

func TestMemoConcurrentCallersGetSerialResults(t *testing.T) {
	t.Parallel()
	r := rng.New(16)
	tmpls := [][]complex128{randomVec(r, 150), randomVec(r, 700), randomVec(r, 2100)}
	xs := [][]complex128{randomVec(r, 1500), randomVec(r, 6000), randomVec(r, 20000), randomVec(r, 3001)}
	want := make([][][]float64, len(xs))
	for i, x := range xs {
		for _, tm := range tmpls {
			want[i] = append(want[i], refNormalizedCorrelate(x, tm))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(xs)
				var got [][]float64
				if g%2 == 0 {
					got = NormalizedCorrelateAll(xs[i], tmpls...)
				} else {
					for _, tm := range tmpls {
						got = append(got, NormalizedCorrelate(xs[i], tm))
					}
				}
				for j := range tmpls {
					if !sameFloats(got[j], want[i][j]) {
						errs <- "concurrent correlation differs from the serial result"
						return
					}
				}
				if !sameBits(FFT(xs[3]), FFT(xs[3])) {
					errs <- "concurrent Bluestein FFT is not repeatable"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzCorrelateMatchesDirect checks the correlator over arbitrary inputs:
// the FFT path (taken whenever len(x)·len(ref) > 2^17) agrees with the
// O(n·k) direct sum to 1e-9 of ‖x‖·‖ref‖, and a repeated call — a memo hit
// on the template's spectrum — is bit-identical to the first.
func FuzzCorrelateMatchesDirect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6}, uint16(4000), uint16(100))
	f.Add([]byte{0x80, 0x7f}, []byte{0xff}, uint16(9), uint16(3))
	f.Add([]byte{}, []byte{1}, uint16(300), uint16(2000))
	f.Fuzz(func(t *testing.T, xb, rb []byte, nRaw, kRaw uint16) {
		k := int(kRaw)%1024 + 1
		n := k + int(nRaw)%4096
		fill := func(b []byte, n int) []complex128 {
			v := make([]complex128, n)
			if len(b) == 0 {
				return v
			}
			for i := range v {
				v[i] = complex(float64(int8(b[(2*i)%len(b)])), float64(int8(b[(2*i+1)%len(b)])))
			}
			return v
		}
		x, ref := fill(xb, n), fill(rb, k)
		got := CrossCorrelate(x, ref)
		tol := 1e-9 * math.Sqrt(Energy(x)*Energy(ref))
		for i := range got {
			var want complex128
			for j, r := range ref {
				want += x[i+j] * complex(real(r), -imag(r))
			}
			if d := got[i] - want; math.Hypot(real(d), imag(d)) > tol {
				t.Fatalf("n=%d k=%d lag %d: %v vs direct %v (tolerance %g)", n, k, i, got[i], want, tol)
			}
		}
		if again := CrossCorrelate(x, ref); !sameBits(again, got) {
			t.Fatalf("n=%d k=%d: repeated call differs", n, k)
		}
	})
}
