package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCrossCorrelatePeakAtOffset(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	ref := randomVec(r, 64)
	for _, offset := range []int{0, 10, 100, 400} {
		x := make([]complex128, 512)
		Add(x, ref, offset)
		corr := CrossCorrelate(x, ref)
		idx, _ := MaxAbs(corr)
		if idx != offset {
			t.Fatalf("offset %d: peak at %d", offset, idx)
		}
	}
}

func TestCrossCorrelateFFTPathMatchesDirect(t *testing.T) {
	t.Parallel()
	r := rng.New(2)
	ref := randomVec(r, 700) // 700 * 1000 > 1<<17 forces FFT on the long input
	x := randomVec(r, 1000)
	got := CrossCorrelate(x, ref) // FFT path (700*1000 > 131072)
	// direct reference
	outLen := len(x) - len(ref) + 1
	want := make([]complex128, outLen)
	for i := 0; i < outLen; i++ {
		var acc complex128
		for j, rv := range ref {
			acc += x[i+j] * complex(real(rv), -imag(rv))
		}
		want[i] = acc
	}
	for i := range want {
		if !approxEq(got[i], want[i], 1e-6*float64(len(ref))) {
			t.Fatalf("fft correlation mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCrossCorrelateDegenerate(t *testing.T) {
	t.Parallel()
	if CrossCorrelate(nil, []complex128{1}) != nil {
		t.Fatal("ref longer than x should return nil")
	}
	if CrossCorrelate([]complex128{1, 2}, nil) != nil {
		t.Fatal("empty ref should return nil")
	}
	out := CrossCorrelate([]complex128{1, 2, 3}, []complex128{1, 2, 3})
	if len(out) != 1 {
		t.Fatalf("equal lengths should give one lag, got %d", len(out))
	}
}

func TestNormalizedCorrelatePerfectMatch(t *testing.T) {
	t.Parallel()
	r := rng.New(3)
	ref := randomVec(r, 128)
	x := make([]complex128, 600)
	Add(x, Clone(ref), 200)
	Scale(x, 5) // scaling must not affect normalized value
	m := NormalizedCorrelate(x, ref)
	pk := MaxPeak(m)
	if pk.Index != 200 {
		t.Fatalf("peak at %d, want 200", pk.Index)
	}
	if math.Abs(pk.Value-1) > 1e-9 {
		t.Fatalf("normalized peak %v, want 1", pk.Value)
	}
	// elsewhere (pure zeros) the metric must be 0, and never exceed 1
	for i, v := range m {
		if v > 1+1e-9 {
			t.Fatalf("metric exceeds 1 at %d: %v", i, v)
		}
	}
}

func TestNormalizedCorrelateShiftEquivariance(t *testing.T) {
	t.Parallel()
	r := rng.New(4)
	ref := randomVec(r, 32)
	f := func(shiftRaw uint16) bool {
		shift := int(shiftRaw % 200)
		x := make([]complex128, 300)
		Add(x, ref, shift)
		m := NormalizedCorrelate(x, ref)
		return MaxPeak(m).Index == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedCorrelateUnderNoise(t *testing.T) {
	t.Parallel()
	r := rng.New(5)
	ref := randomVec(r, 256)
	Normalize(ref)
	x := make([]complex128, 2048)
	for i := range x {
		x[i] = r.Complex() // unit-power noise
	}
	sig := Clone(ref)
	Scale(sig, math.Sqrt(FromDB(0))) // 0 dB SNR
	Add(x, sig, 1000)
	m := NormalizedCorrelate(x, ref)
	pk := MaxPeak(m)
	if pk.Index < 995 || pk.Index > 1005 {
		t.Fatalf("noisy peak at %d, want ~1000", pk.Index)
	}
}

func TestFindPeaksSuppression(t *testing.T) {
	t.Parallel()
	metric := []float64{0, 1, 0, 0, 0.5, 0, 0, 0, 2, 0}
	peaks := FindPeaks(metric, 0.4, 3)
	if len(peaks) != 3 {
		t.Fatalf("peaks: %+v", peaks)
	}
	// Close peaks: keep larger.
	metric2 := []float64{0, 1, 0, 3, 0}
	peaks2 := FindPeaks(metric2, 0.5, 5)
	if len(peaks2) != 1 || peaks2[0].Index != 3 {
		t.Fatalf("suppression failed: %+v", peaks2)
	}
}

func TestFindPeaksThreshold(t *testing.T) {
	t.Parallel()
	metric := []float64{0.1, 0.3, 0.1}
	if got := FindPeaks(metric, 0.5, 1); len(got) != 0 {
		t.Fatalf("sub-threshold peak returned: %+v", got)
	}
}

func TestParabolicInterp(t *testing.T) {
	t.Parallel()
	// samples of a parabola peaking at x = 1.3 around index 1
	f := func(x float64) float64 { return 4 - (x-1.3)*(x-1.3) }
	metric := []float64{f(0), f(1), f(2)}
	d := ParabolicInterp(metric, 1)
	if math.Abs(d-0.3) > 1e-9 {
		t.Fatalf("interp offset %v, want 0.3", d)
	}
	if ParabolicInterp(metric, 0) != 0 || ParabolicInterp(metric, 2) != 0 {
		t.Fatal("boundary interp should be 0")
	}
}

func BenchmarkNormalizedCorrelate(b *testing.B) {
	r := rng.New(1)
	ref := randomVec(r, 256)
	x := randomVec(r, 65536)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NormalizedCorrelate(x, ref)
	}
}
