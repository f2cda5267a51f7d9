package dbpsk

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/rng"
)

const fs = 1e6

func TestDefaults(t *testing.T) {
	r := Default()
	c := r.Config()
	if c.BitRate != 2000 || c.CenterOffset != -300e3 || c.PreambleLen != 4 || c.MaxPayload != 12 {
		t.Fatalf("defaults %+v", c)
	}
	if r.Name() != "dbpsk" || r.Class() != phy.ClassPSK {
		t.Fatal("identity")
	}
	if r.OccupiedBandwidth() != 4000 || r.Center() != -300e3 {
		t.Fatal("narrowband params")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{BitRate: -1}); err == nil {
		t.Fatal("negative rate")
	}
	if _, err := New(Config{PreambleLen: 1}); err == nil {
		t.Fatal("short preamble")
	}
	if _, err := New(Config{MaxPayload: 99}); err == nil {
		t.Fatal("oversized payload")
	}
	r := Default()
	if _, err := r.Modulate(nil, fs); err == nil {
		t.Fatal("empty payload")
	}
	if _, err := r.Modulate(make([]byte, 13), fs); err == nil {
		t.Fatal("payload over max")
	}
}

func TestSpectrumIsNarrowband(t *testing.T) {
	r := Default()
	sig, err := r.Modulate([]byte{1, 2, 3, 4}, fs)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.AbsSq(dsp.FFT(sig))
	n := len(spec)
	inBand, total := 0.0, 0.0
	for i, p := range spec {
		total += p
		f := float64(i) * fs / float64(n)
		if i > n/2 {
			f -= fs
		}
		if math.Abs(f-(-300e3)) <= 4000 {
			inBand += p
		}
	}
	if inBand/total < 0.95 {
		t.Fatalf("only %.1f%% of energy within the occupied band", 100*inBand/total)
	}
}

func TestRoundTripClean(t *testing.T) {
	r := Default()
	payload := []byte("sigfoxish")
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+10000)
	dsp.Add(rx, sig, 4000)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("payload %q crc %v", frame.Payload, frame.CRCOK)
	}
	if frame.Offset < 3990 || frame.Offset > 4010 {
		t.Fatalf("offset %d", frame.Offset)
	}
}

func TestRoundTripNoise(t *testing.T) {
	// Ultra-narrowband has enormous processing gain relative to the 1 MHz
	// capture: the matched band is 4 kHz wide, so -10 dB wideband SNR is
	// ~14 dB in-band.
	r := Default()
	gen := rng.New(5)
	payload := []byte{9, 8, 7}
	sig, _ := r.Modulate(payload, fs)
	for _, snr := range []float64{0, -10} {
		rx := make([]complex128, len(sig)+8000)
		for i := range rx {
			rx[i] = gen.Complex()
		}
		s := dsp.Scale(dsp.Clone(sig), math.Sqrt(dsp.FromDB(snr)))
		dsp.Add(rx, s, 3000)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			t.Fatalf("snr %v: %v", snr, err)
		}
		if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("snr %v: payload %x", snr, frame.Payload)
		}
	}
}

func TestRoundTripPhaseRotation(t *testing.T) {
	// Differential encoding must survive an arbitrary carrier phase.
	r := Default()
	payload := []byte{0xAB, 0xCD}
	sig, _ := r.Modulate(payload, fs)
	rot := dsp.ScaleComplex(dsp.Clone(sig), complex(math.Cos(2.2), math.Sin(2.2)))
	rx := make([]complex128, len(sig)+6000)
	dsp.Add(rx, rot, 2500)
	frame, err := r.Demodulate(rx, fs)
	if err != nil || !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("rotated decode: %v %+v", err, frame)
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := Default()
	gen := rng.New(6)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw%12) + 1
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := r.Modulate(payload, fs)
		if err != nil {
			return false
		}
		rx := make([]complex128, len(sig)+4000)
		dsp.Add(rx, sig, 1500)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			return false
		}
		return frame.CRCOK && bytes.Equal(frame.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestShortWindow(t *testing.T) {
	r := Default()
	if _, err := r.Demodulate(make([]complex128, 100), fs); !errors.Is(err, phy.ErrNoFrame) {
		t.Fatalf("want ErrNoFrame, got %v", err)
	}
}

func TestMaxPacketSamplesCovers(t *testing.T) {
	r := Default()
	sig, err := r.Modulate(make([]byte, 12), fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPacketSamples(fs) < len(sig) {
		t.Fatalf("MaxPacketSamples %d < %d", r.MaxPacketSamples(fs), len(sig))
	}
}

func BenchmarkDemodulate(b *testing.B) {
	r := Default()
	sig, _ := r.Modulate([]byte{1, 2, 3, 4}, fs)
	rx := make([]complex128, len(sig)+2000)
	dsp.Add(rx, sig, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Demodulate(rx, fs); err != nil {
			b.Fatal(err)
		}
	}
}
