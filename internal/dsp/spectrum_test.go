package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func TestWindowShapes(t *testing.T) {
	t.Parallel()
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.Coefficients(65)
		if len(c) != 65 {
			t.Fatalf("%v length %d", w, len(c))
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v coefficient %d out of range: %v", w, i, v)
			}
		}
		// symmetric
		for i := range c {
			if math.Abs(c[i]-c[len(c)-1-i]) > 1e-12 {
				t.Fatalf("%v not symmetric", w)
			}
		}
	}
	if Hann.Coefficients(1)[0] != 1 {
		t.Fatal("length-1 window should be 1")
	}
	if Hann.String() != "hann" || Rectangular.String() != "rectangular" {
		t.Fatal("window names")
	}
}

func TestHannEndpointsZero(t *testing.T) {
	t.Parallel()
	c := Hann.Coefficients(33)
	if math.Abs(c[0]) > 1e-12 || math.Abs(c[32]) > 1e-12 {
		t.Fatalf("hann endpoints %v %v", c[0], c[32])
	}
}

func TestPeriodogramTone(t *testing.T) {
	t.Parallel()
	const n, fs = 1024, 1e6
	x := Tone(n, 125e3, 0, fs)
	p := Periodogram(x, Hann)
	best, bv := 0, 0.0
	for i, v := range p {
		if v > bv {
			best, bv = i, v
		}
	}
	f := float64(best) * fs / n
	if math.Abs(f-125e3) > 2*fs/n {
		t.Fatalf("periodogram peak at %v Hz", f)
	}
}

func TestWelchLowerVariance(t *testing.T) {
	t.Parallel()
	r := rng.New(1)
	x := make([]complex128, 8192)
	for i := range x {
		x[i] = r.Complex()
	}
	single := Periodogram(x, Hann)
	welch := WelchPSD(x, 512, Hann)
	varOf := func(p []float64) float64 {
		var mean float64
		for _, v := range p {
			mean += v
		}
		mean /= float64(len(p))
		var s float64
		for _, v := range p {
			s += (v - mean) * (v - mean)
		}
		return s / float64(len(p)) / (mean * mean) // normalized variance
	}
	if varOf(welch) >= varOf(single) {
		t.Fatalf("welch variance %v not below periodogram %v", varOf(welch), varOf(single))
	}
}

func TestGoertzelMatchesFFT(t *testing.T) {
	t.Parallel()
	r := rng.New(2)
	const n, fs = 256, 1e6
	x := randomVec(r, n)
	spec := FFT(x)
	for _, bin := range []int{0, 3, 128, 200} {
		freq := float64(bin) * fs / n
		g := Goertzel(x, freq, fs)
		if cmplx.Abs(g-spec[bin]) > 1e-6 {
			t.Fatalf("goertzel bin %d: %v vs %v", bin, g, spec[bin])
		}
	}
}

func TestDominantFrequencyInterpolated(t *testing.T) {
	t.Parallel()
	const n, fs = 2048, 1e6
	// frequency between bins
	target := 100e3 + fs/n/3
	x := Tone(n, target, 0, fs)
	f := DominantFrequency(x, fs)
	if math.Abs(f-target) > fs/n/4 {
		t.Fatalf("estimated %v, want %v (bin width %v)", f, target, fs/n)
	}
}

func TestEstimateCFO(t *testing.T) {
	t.Parallel()
	const fs = 1e6
	for _, cfo := range []float64{1000, -7500, 30000} {
		x := Tone(4000, cfo, 0.7, fs)
		got := EstimateCFO(x, fs)
		if math.Abs(got-cfo) > 5 {
			t.Fatalf("cfo %v estimated as %v", cfo, got)
		}
	}
}

func TestEstimateSNR(t *testing.T) {
	t.Parallel()
	r := rng.New(3)
	tmpl := randomVec(r, 2000)
	Normalize(tmpl)
	for _, snrDB := range []float64{0, 10, 20} {
		rx := make([]complex128, len(tmpl))
		amp := complex(math.Sqrt(FromDB(snrDB)), 0)
		for i := range rx {
			rx[i] = amp*tmpl[i] + r.Complex()
		}
		est := DB(EstimateSNR(rx, tmpl))
		if math.Abs(est-snrDB) > 1.5 {
			t.Fatalf("snr %v dB estimated as %v dB", snrDB, est)
		}
	}
	if EstimateSNR(nil, nil) != 0 {
		t.Fatal("degenerate SNR should be 0")
	}
	clean := Clone(tmpl)
	if !math.IsInf(EstimateSNR(clean, tmpl), 1) {
		t.Fatal("noiseless SNR should be +Inf")
	}
}

func BenchmarkPeriodogram4096(b *testing.B) {
	x := randomVec(rng.New(1), 4096)
	for i := 0; i < b.N; i++ {
		_ = Periodogram(x, Hann)
	}
}
