package frontend

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/rng"
)

func TestIdealIsTransparent(t *testing.T) {
	r := Ideal(1e6)
	in := dsp.Tone(1000, 50e3, 0, 1e6)
	out := r.Capture(in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("ideal front-end altered samples")
		}
	}
}

func TestCaptureDoesNotMutateInput(t *testing.T) {
	r := Default()
	in := dsp.Tone(1000, 50e3, 0, 1e6)
	ref := dsp.Clone(in)
	r.Capture(in)
	for i := range in {
		if in[i] != ref[i] {
			t.Fatal("Capture mutated its input")
		}
	}
}

func TestFreqErrorShiftsSpectrum(t *testing.T) {
	r := New(Config{SampleRate: 1e6, FreqError: 5000})
	in := dsp.Tone(4096, 100e3, 0, 1e6)
	out := r.Capture(in)
	f := dsp.DominantFrequency(out, 1e6)
	if math.Abs(f-105e3) > 300 {
		t.Fatalf("tone at %v, want 105 kHz", f)
	}
}

func TestDCOffset(t *testing.T) {
	r := New(Config{SampleRate: 1e6, DCOffsetI: 0.05, DCOffsetQ: -0.03})
	out := r.Capture(make([]complex128, 1000))
	var mean complex128
	for _, v := range out {
		mean += v
	}
	mean /= 1000
	if math.Abs(real(mean)-0.05) > 1e-9 || math.Abs(imag(mean)+0.03) > 1e-9 {
		t.Fatalf("dc %v", mean)
	}
}

func TestIQImbalanceCreatesImage(t *testing.T) {
	// Gain/phase imbalance of a +f tone creates an image at -f.
	r := New(Config{SampleRate: 1e6, IQGainErr: 0.05, IQPhaseErr: 0.05})
	in := dsp.Tone(8192, 100e3, 0, 1e6)
	out := r.Capture(in)
	spec := dsp.Abs(dsp.FFT(out))
	n := len(spec)
	posBin := int(math.Round(100e3 * float64(n) / 1e6))
	negBin := n - posBin
	if spec[negBin] < spec[posBin]/100 {
		t.Fatalf("image too weak: pos %v neg %v", spec[posBin], spec[negBin])
	}
	if spec[negBin] > spec[posBin]/5 {
		t.Fatalf("image too strong: pos %v neg %v", spec[posBin], spec[negBin])
	}
}

func TestQuantizationAddsBoundedNoise(t *testing.T) {
	r := New(Config{SampleRate: 1e6, Quantize: true})
	gen := rng.New(3)
	in := channel.AWGN(20000, gen)
	dsp.Scale(in, 0.1)
	out := r.Capture(in)
	// error power must be small relative to signal power
	var errP float64
	for i := range in {
		d := out[i] - in[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
	}
	errP /= float64(len(in))
	sigP := dsp.Power(in)
	snr := dsp.DB(sigP / errP)
	// 8-bit quantization with AGC headroom gives roughly 30-45 dB SQNR
	if snr < 25 {
		t.Fatalf("quantization SNR %v dB too low", snr)
	}
}

func TestDefaultEndToEndStillDecodable(t *testing.T) {
	// The full impairment chain must preserve enough fidelity that a clean
	// strong tone stays dominant.
	r := Default()
	in := dsp.Tone(8192, 200e3, 0, 1e6)
	dsp.Scale(in, 0.3)
	out := r.Capture(in)
	f := dsp.DominantFrequency(out, 1e6)
	if math.Abs(f-200e3-500) > 1000 { // 500 Hz tuner error expected
		t.Fatalf("tone at %v", f)
	}
}

func TestConfigAccessors(t *testing.T) {
	r := Default()
	if r.SampleRate() != 1e6 {
		t.Fatal("sample rate")
	}
	if !r.Config().Quantize {
		t.Fatal("default should quantize")
	}
}
