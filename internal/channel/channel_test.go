package channel

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/rng"
)

func unitBurst(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestMixNoiseFree(t *testing.T) {
	t.Parallel()
	e := Emission{Samples: unitBurst(10), Offset: 5, SNRdB: 0}
	out := Mix(20, []Emission{e}, nil, 1e6)
	if out[4] != 0 || out[15] != 0 {
		t.Fatal("samples outside burst must be zero")
	}
	if math.Abs(real(out[5])-1) > 1e-12 {
		t.Fatalf("burst amplitude %v", out[5])
	}
}

func TestMixSNRCalibration(t *testing.T) {
	t.Parallel()
	gen := rng.New(1)
	const n = 200000
	for _, snr := range []float64{-10, 0, 10} {
		e := Emission{Samples: unitBurst(n), SNRdB: snr}
		out := Mix(n, []Emission{e}, nil, 1e6)
		got := dsp.DB(dsp.Power(out))
		if math.Abs(got-snr) > 0.01 {
			t.Fatalf("snr %v: burst power %v dB", snr, got)
		}
	}
	// noise power must be ~1 (0 dB)
	noiseOnly := Mix(n, nil, gen, 1e6)
	if p := dsp.Power(noiseOnly); math.Abs(p-1) > 0.02 {
		t.Fatalf("noise power %v", p)
	}
}

func TestMixSuperposition(t *testing.T) {
	t.Parallel()
	e1 := Emission{Samples: unitBurst(10), Offset: 0, SNRdB: 0}
	e2 := Emission{Samples: unitBurst(10), Offset: 5, SNRdB: 0}
	out := Mix(20, []Emission{e1, e2}, nil, 1e6)
	if math.Abs(real(out[7])-2) > 1e-12 {
		t.Fatalf("overlap sample %v, want 2", out[7])
	}
	if math.Abs(real(out[2])-1) > 1e-12 || math.Abs(real(out[12])-1) > 1e-12 {
		t.Fatal("non-overlap samples wrong")
	}
}

func TestMixCFOAndPhase(t *testing.T) {
	t.Parallel()
	e := Emission{Samples: unitBurst(1000), CFO: 10000, Phase: math.Pi / 2, SNRdB: 0}
	out := Mix(1000, []Emission{e}, nil, 1e6)
	// first sample rotated by phase
	if math.Abs(real(out[0])) > 1e-9 || math.Abs(imag(out[0])-1) > 1e-9 {
		t.Fatalf("initial phase: %v", out[0])
	}
	f := dsp.DominantFrequency(out, 1e6)
	if math.Abs(f-10000) > 1100 {
		t.Fatalf("cfo %v", f)
	}
}

func TestAWGNPower(t *testing.T) {
	t.Parallel()
	gen := rng.New(2)
	x := AWGN(100000, gen)
	if p := dsp.Power(x); math.Abs(p-1) > 0.02 {
		t.Fatalf("awgn power %v", p)
	}
}
