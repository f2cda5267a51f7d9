package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

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
