package fsk

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/rng"
)

const fs = 1e6

var gfsk = Modem{BitRate: 20e3, Deviation: 10e3, BT: 0.5}
var bfsk = Modem{BitRate: 40e3, Deviation: 20e3}

func TestValidate(t *testing.T) {
	if err := gfsk.Validate(fs); err != nil {
		t.Fatal(err)
	}
	if err := (Modem{BitRate: 0, Deviation: 1e3}).Validate(fs); err == nil {
		t.Fatal("zero bit rate")
	}
	if err := (Modem{BitRate: 1e3, Deviation: 0}).Validate(fs); err == nil {
		t.Fatal("zero deviation")
	}
	if err := (Modem{BitRate: 400e3, Deviation: 300e3}).Validate(fs); err == nil {
		t.Fatal("insufficient sample rate")
	}
}

func TestModulateUnitEnvelope(t *testing.T) {
	sig, err := bfsk.ModulateBits([]byte{1, 0, 1, 1, 0}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != 125 { // 5 bits at 25 sps
		t.Fatalf("length %d", len(sig))
	}
	for i, v := range sig {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("sample %d magnitude %v", i, cmplx.Abs(v))
		}
	}
}

func TestToneFrequencies(t *testing.T) {
	// A run of identical bits must sit at ±deviation.
	ones, _ := bfsk.ModulateBits(bits.Repeat([]byte{1}, 40), fs)
	zeros, _ := bfsk.ModulateBits(bits.Repeat([]byte{0}, 40), fs)
	if f := dsp.DominantFrequency(ones[100:900], fs); math.Abs(f-20e3) > 1500 {
		t.Fatalf("ones tone at %v", f)
	}
	if f := dsp.DominantFrequency(zeros[100:900], fs); math.Abs(f+20e3) > 1500 {
		t.Fatalf("zeros tone at %v", f)
	}
}

func TestRoundTripClean(t *testing.T) {
	for name, m := range map[string]Modem{"gfsk": gfsk, "bfsk": bfsk} {
		in := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0}
		sig, err := m.ModulateBits(in, fs)
		if err != nil {
			t.Fatal(err)
		}
		disc := m.Discriminate(sig, fs)
		got := m.DemodulateBits(disc, 0, len(in), fs, 0)
		if !bytes.Equal(got, in) {
			t.Fatalf("%s: got %v want %v", name, got, in)
		}
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	gen := rng.New(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 8
		in := make([]byte, n)
		for i := range in {
			if gen.Bool() {
				in[i] = 1
			}
		}
		sig, err := gfsk.ModulateBits(in, fs)
		if err != nil {
			return false
		}
		disc := gfsk.Discriminate(sig, fs)
		got := gfsk.DemodulateBits(disc, 0, n, fs, 0)
		return bytes.Equal(got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripUnderNoise(t *testing.T) {
	gen := rng.New(4)
	in := make([]byte, 64)
	for i := range in {
		if gen.Bool() {
			in[i] = 1
		}
	}
	sig, _ := gfsk.ModulateBits(in, fs)
	// 10 dB SNR over the full 1 MHz band; in-band SNR after the ~30 kHz
	// discriminator filter is ~15 dB higher.
	rx := make([]complex128, len(sig))
	amp := math.Sqrt(dsp.FromDB(10))
	for i := range rx {
		rx[i] = complex(amp, 0)*sig[i] + gen.Complex()
	}
	disc := gfsk.Discriminate(rx, fs)
	got := gfsk.DemodulateBits(disc, 0, len(in), fs, 0)
	if !bytes.Equal(got, in) {
		t.Fatalf("bit errors at 10 dB: got %v want %v", got, in)
	}
}

func TestCFOEstimateAndCorrection(t *testing.T) {
	pre := bits.Repeat([]byte{0, 1}, 16) // 32-bit 0101 preamble
	in := append(append([]byte{}, pre...), 1, 1, 0, 1, 0, 0, 1, 0)
	sig, _ := gfsk.ModulateBits(in, fs)
	const cfo = 2000.0
	dsp.Mix(sig, cfo, 0, fs)
	disc := gfsk.Discriminate(sig, fs)
	est := gfsk.EstimateCFO(disc, 0, len(pre), fs)
	if math.Abs(est-cfo) > 200 {
		t.Fatalf("cfo estimate %v, want %v", est, cfo)
	}
	got := gfsk.DemodulateBits(disc, 0, len(in), fs, est)
	if !bytes.Equal(got, in) {
		t.Fatalf("cfo-corrected demod failed: %v", got)
	}
}

func TestNumSamplesFractionalRates(t *testing.T) {
	m := Modem{BitRate: 9600, Deviation: 20e3} // 104.1667 samples per bit
	if err := m.Validate(fs); err != nil {
		t.Fatal(err)
	}
	n := m.NumSamples(96, fs)
	if n != 10000 {
		t.Fatalf("96 bits at 9600 bps / 1 MHz = %d samples, want 10000", n)
	}
	in := bits.Repeat([]byte{1, 0, 0}, 32)
	sig, err := m.ModulateBits(in, fs)
	if err != nil {
		t.Fatal(err)
	}
	disc := m.Discriminate(sig, fs)
	got := m.DemodulateBits(disc, 0, len(in), fs, 0)
	if !bytes.Equal(got, in) {
		t.Fatal("fractional-sps round trip failed")
	}
}

func BenchmarkModulate64Bits(b *testing.B) {
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i % 2)
	}
	for i := 0; i < b.N; i++ {
		if _, err := gfsk.ModulateBits(in, fs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscriminate(b *testing.B) {
	in := make([]byte, 256)
	sig, _ := gfsk.ModulateBits(in, fs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gfsk.Discriminate(sig, fs)
	}
}

func TestDemodulateBitsToneCleanAndUnderToneInterference(t *testing.T) {
	in := bits.Repeat([]byte{1, 0, 1, 1, 0}, 8)
	sig, _ := gfsk.ModulateBits(in, fs)
	got := gfsk.DemodulateBitsTone(sig, 0, len(in), fs, 0)
	if !bytes.Equal(got, in) {
		t.Fatalf("clean tone demod: %v", got)
	}
	// Add a strong interferer far from the two tone frequencies: the tone
	// detector must shrug it off while the broadband discriminator breaks.
	rx := dsp.Clone(sig)
	dsp.Add(rx, dsp.Scale(dsp.Tone(len(sig), 200e3, 0, fs), 3), 0)
	gotTone := gfsk.DemodulateBitsTone(rx, 0, len(in), fs, 0)
	if !bytes.Equal(gotTone, in) {
		t.Fatalf("tone demod under out-of-band interference: %v", gotTone)
	}
	disc := gfsk.Discriminate(rx, fs)
	gotDisc := gfsk.DemodulateBits(disc, 0, len(in), fs, 0)
	if bytes.Equal(gotDisc, in) {
		t.Log("discriminator survived too (filter caught the interferer); tone path still validated")
	}
}

func TestDemodulateBitsToneWithCFO(t *testing.T) {
	in := bits.Repeat([]byte{0, 1, 1, 0}, 10)
	sig, _ := gfsk.ModulateBits(in, fs)
	const cfo = 1200.0
	dsp.Mix(sig, cfo, 0, fs)
	got := gfsk.DemodulateBitsTone(sig, 0, len(in), fs, cfo)
	if !bytes.Equal(got, in) {
		t.Fatalf("tone demod with cfo: %v", got)
	}
}

func TestFreqTemplateMatchesModulatedTrajectory(t *testing.T) {
	in := []byte{1, 1, 0, 1, 0, 0, 1, 0}
	tmpl := gfsk.FreqTemplate(in, fs)
	sig, _ := gfsk.ModulateBits(in, fs)
	if len(tmpl) != len(sig) {
		t.Fatalf("template length %d vs signal %d", len(tmpl), len(sig))
	}
	disc := dsp.FreqDiscriminator(sig, fs)
	// Compare interior samples: the discriminator of the synthesized
	// waveform must track the analytic template closely.
	for i := 100; i < len(disc)-100; i += 37 {
		if math.Abs(disc[i]-tmpl[i+1]) > 600 { // 6% of deviation
			t.Fatalf("trajectory mismatch at %d: %v vs %v", i, disc[i], tmpl[i+1])
		}
	}
}

func TestSyncDiscExactness(t *testing.T) {
	pre := bits.Repeat([]byte{0, 1}, 16)
	preWave, _ := gfsk.ModulateBits(pre, fs)
	full := append(dsp.Clone(preWave), dsp.Tone(2000, 0, 0, fs)...)
	rx := make([]complex128, 12000)
	dsp.Add(rx, full, 5000)
	disc := gfsk.Discriminate(rx, fs)
	start, q := gfsk.SyncDisc(disc, pre, fs)
	if start < 4998 || start > 5002 {
		t.Fatalf("sync at %d, want ~5000 (quality %v)", start, q)
	}
	if q < 0.8 {
		t.Fatalf("quality %v", q)
	}
}
