package dsp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestLowPassPassesAndStops(t *testing.T) {
	t.Parallel()
	const fs = 1e6
	lp := LowPass(100e3, fs, 129)
	pass := lp.ApplyComplex(Tone(4096, 20e3, 0, fs))
	stop := lp.ApplyComplex(Tone(4096, 400e3, 0, fs))
	// ignore filter edge transients
	passP := Power(pass[256 : len(pass)-256])
	stopP := Power(stop[256 : len(stop)-256])
	if passP < 0.9 {
		t.Fatalf("passband power %v, want ~1", passP)
	}
	if stopP > 0.001 {
		t.Fatalf("stopband power %v, want <0.001", stopP)
	}
}

func TestLowPassUnitDCGain(t *testing.T) {
	t.Parallel()
	lp := LowPass(50e3, 1e6, 65)
	var sum float64
	for _, h := range lp.Taps {
		sum += h
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("DC gain %v", sum)
	}
}

func TestLowPassOddTaps(t *testing.T) {
	t.Parallel()
	lp := LowPass(10e3, 1e6, 10)
	if len(lp.Taps)%2 == 0 {
		t.Fatalf("tap count %d should be odd", len(lp.Taps))
	}
}

func TestGaussianFilterProperties(t *testing.T) {
	t.Parallel()
	g := Gaussian(0.5, 8, 4)
	if len(g.Taps) != 33 {
		t.Fatalf("tap count %d", len(g.Taps))
	}
	var sum float64
	peak := 0.0
	peakIdx := 0
	for i, h := range g.Taps {
		if h < 0 {
			t.Fatal("gaussian taps must be non-negative")
		}
		sum += h
		if h > peak {
			peak, peakIdx = h, i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("gaussian sum %v", sum)
	}
	if peakIdx != len(g.Taps)/2 {
		t.Fatalf("gaussian peak at %d, want center", peakIdx)
	}
	// symmetric
	for i := range g.Taps {
		j := len(g.Taps) - 1 - i
		if math.Abs(g.Taps[i]-g.Taps[j]) > 1e-12 {
			t.Fatal("gaussian taps not symmetric")
		}
	}
}

func TestGaussianNarrowerWithSmallerBT(t *testing.T) {
	t.Parallel()
	wide := Gaussian(0.5, 8, 4)
	narrow := Gaussian(0.3, 8, 4)
	// smaller BT → more smoothing → lower center tap
	if narrow.Taps[len(narrow.Taps)/2] >= wide.Taps[len(wide.Taps)/2] {
		t.Fatal("BT=0.3 should spread energy more than BT=0.5")
	}
}

func TestApplySameLength(t *testing.T) {
	t.Parallel()
	lp := LowPass(100e3, 1e6, 31)
	x := randomVec(rng.New(1), 777)
	y := lp.ApplyComplex(x)
	if len(y) != len(x) {
		t.Fatalf("output length %d, want %d", len(y), len(x))
	}
	xr := make([]float64, 100)
	for i := range xr {
		xr[i] = float64(i)
	}
	yr := lp.ApplyReal(xr)
	if len(yr) != len(xr) {
		t.Fatalf("real output length %d", len(yr))
	}
}

func TestConvolveFFTMatchesDirect(t *testing.T) {
	t.Parallel()
	// Force both paths and compare.
	r := rng.New(2)
	x := randomVec(r, 3000)
	h := LowPass(100e3, 1e6, 101).Taps
	direct := make([]complex128, len(x)+len(h)-1)
	for i, tap := range h {
		ct := complex(tap, 0)
		for j, v := range x {
			direct[i+j] += ct * v
		}
	}
	fftOut := convolveComplex(x, h) // small product → direct; grow it
	big := randomVec(r, 200000)
	fftBig := convolveComplex(big, h)
	directBigHead := make([]complex128, 300)
	for i, tap := range h {
		for j := 0; j < 300-i && j < len(big); j++ {
			directBigHead[i+j] += complex(tap, 0) * big[j]
		}
	}
	for i := 100; i < 200; i++ { // interior samples fully determined
		if !approxEq(fftBig[i], directBigHead[i], 1e-6) {
			t.Fatalf("fft conv mismatch at %d: %v vs %v", i, fftBig[i], directBigHead[i])
		}
	}
	for i := range direct {
		if !approxEq(fftOut[i], direct[i], 1e-6) {
			t.Fatalf("direct conv mismatch at %d", i)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	t.Parallel()
	x := []float64{1, 1, 1, 1, 1}
	ma := MovingAverage(x, 3)
	for _, v := range ma {
		if math.Abs(v-1) > eps {
			t.Fatalf("moving average of constant: %v", ma)
		}
	}
	step := []float64{0, 0, 0, 3, 3, 3}
	ms := MovingAverage(step, 3)
	if math.Abs(ms[3]-2) > eps { // window covers {0,3,3}
		t.Fatalf("step response %v", ms)
	}
}

func BenchmarkLowPassApply4096(b *testing.B) {
	lp := LowPass(100e3, 1e6, 63)
	x := randomVec(rng.New(1), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = lp.ApplyComplex(x)
	}
}
