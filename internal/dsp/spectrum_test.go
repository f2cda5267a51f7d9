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

func TestFitGain(t *testing.T) {
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
		_, snr := FitGain(rx, tmpl)
		if est := DB(snr); math.Abs(est-snrDB) > 1.5 {
			t.Fatalf("snr %v dB estimated as %v dB", snrDB, est)
		}
	}
	if _, snr := FitGain(nil, nil); snr != 0 {
		t.Fatal("degenerate SNR should be 0")
	}
	clean := Clone(tmpl)
	if _, snr := FitGain(clean, tmpl); !math.IsInf(snr, 1) {
		t.Fatal("noiseless SNR should be +Inf")
	}
}

func TestFitGainDegenerate(t *testing.T) {
	t.Parallel()
	tmpl := []complex128{1, 1i, -1, -1i}
	if g, snr := FitGain(nil, tmpl); g != 0 || snr != 0 {
		t.Fatalf("empty rx: gain %v snr %v, want 0 0", g, snr)
	}
	if g, snr := FitGain([]complex128{1, 2, 3, 4}, make([]complex128, 4)); g != 0 || snr != 0 {
		t.Fatalf("silent template: gain %v snr %v, want 0 0", g, snr)
	}
	// A scaled, rotated copy is a perfect fit: the gain is recovered
	// exactly and nothing is left over.
	want := complex(0, 2)
	rx := ScaleComplex(Clone(tmpl), want)
	if g, snr := FitGain(rx, tmpl); g != want || !math.IsInf(snr, 1) {
		t.Fatalf("perfect fit: gain %v snr %v, want %v +Inf", g, snr, want)
	}
	// Unequal lengths fit over the shorter: extra rx samples are ignored.
	if g, snr := FitGain(append(rx, 5, 5), tmpl); g != want || !math.IsInf(snr, 1) {
		t.Fatalf("long rx: gain %v snr %v, want %v +Inf", g, snr, want)
	}
}
