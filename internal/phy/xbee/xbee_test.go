package xbee

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/rng"
)

const fs = 1e6

func TestNewDefaults(t *testing.T) {
	r := Default()
	c := r.Config()
	if c.BitRate != 20e3 || c.Deviation != 10e3 || c.BT != 0.5 || c.PreambleLen != 4 || c.MaxPayload != 96 {
		t.Fatalf("defaults %+v", c)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{PreambleLen: 1}); err == nil {
		t.Fatal("preamble 1 should be rejected")
	}
	if _, err := New(Config{MaxPayload: 999}); err == nil {
		t.Fatal("max payload 999 should be rejected")
	}
	if _, err := New(Config{BitRate: -5}); err == nil {
		t.Fatal("negative bit rate should be rejected")
	}
}

func TestIdentity(t *testing.T) {
	r := Default()
	if r.Name() != "xbee" || r.Class() != phy.ClassFSK || r.BitRate() != 20e3 {
		t.Fatal("identity")
	}
	tones := r.Tones()
	if len(tones) != 2 || tones[0] != -10e3 || tones[1] != 10e3 {
		t.Fatalf("tones %v", tones)
	}
	info := r.Info()
	if info.Modulation != "GFSK" || info.Preamble != "'01010101'" {
		t.Fatalf("info %+v", info)
	}
}

func TestRoundTripClean(t *testing.T) {
	r := Default()
	payload := []byte("xbee sensor reading 42")
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+4000)
	dsp.Add(rx, sig, 1777)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("payload %q crc %v", frame.Payload, frame.CRCOK)
	}
	if frame.Offset < 1777-2 || frame.Offset > 1777+2 {
		t.Fatalf("offset %d, want ~1777", frame.Offset)
	}
	if cmplx.Abs(frame.Gain-1) > 0.1 {
		t.Fatalf("gain %v", frame.Gain)
	}
}

func TestRoundTripRandomPayloads(t *testing.T) {
	r := Default()
	gen := rng.New(11)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw%40) + 1
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := r.Modulate(payload, fs)
		if err != nil {
			return false
		}
		rx := make([]complex128, len(sig)+2000)
		dsp.Add(rx, sig, 600)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			return false
		}
		return frame.CRCOK && bytes.Equal(frame.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripNoiseAndCFO(t *testing.T) {
	r := Default()
	gen := rng.New(12)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sig, _ := r.Modulate(payload, fs)
	for _, tc := range []struct{ snrDB, cfo float64 }{{15, 0}, {10, 1500}, {12, -900}} {
		rx := make([]complex128, len(sig)+3000)
		for i := range rx {
			rx[i] = gen.Complex()
		}
		s := dsp.Mix(dsp.Clone(sig), tc.cfo, 0.2, fs)
		dsp.Scale(s, math.Sqrt(dsp.FromDB(tc.snrDB)))
		dsp.Add(rx, s, 1200)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			t.Fatalf("snr=%v cfo=%v: %v", tc.snrDB, tc.cfo, err)
		}
		if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("snr=%v cfo=%v: bad payload %x", tc.snrDB, tc.cfo, frame.Payload)
		}
	}
}

// TestDemodulateFallsBackToToneDetection: at 8 Msps the discriminator's
// low-pass, capped at 129 taps, passes a tone burst 60 kHz off the carrier
// that starts after the header, so the discriminator misreads the body.
// The tone detector, which only looks at the two FSK tones, recovers the
// frame.
func TestDemodulateFallsBackToToneDetection(t *testing.T) {
	const rate, at = 8e6, 2000
	r := Default()
	payload := []byte("tone fallback")
	sig, err := r.Modulate(payload, rate)
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.modem.NumSamples(len(r.headerAirBits()), rate)
	rx := make([]complex128, at+len(sig)+at)
	copy(rx[at:], sig)
	dsp.Add(rx, dsp.Scale(dsp.Tone(len(rx)-at-hdr, 60e3, 0, rate), 2.5), at+hdr)

	air := r.frameAirBits(payload)
	if got := r.modem.DemodulateBits(r.modem.Discriminate(rx, rate), at, len(air), rate, 0); bytes.Equal(got, air) {
		t.Fatal("the burst leaves the discriminator's decisions intact")
	}
	f, err := r.Demodulate(rx, rate)
	if err != nil || !f.CRCOK || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame %+v err %v, want the payload back through the tone detector", f, err)
	}
}

func TestDemodulateNoise(t *testing.T) {
	r := Default()
	gen := rng.New(13)
	rx := make([]complex128, 60000)
	for i := range rx {
		rx[i] = gen.Complex()
	}
	if frame, err := r.Demodulate(rx, fs); err == nil && frame.CRCOK {
		t.Fatal("pure noise produced a CRC-valid frame")
	}
}

func TestDemodulateErrNoFrameWrapped(t *testing.T) {
	r := Default()
	if _, err := r.Demodulate(make([]complex128, 100), fs); !errors.Is(err, phy.ErrNoFrame) {
		t.Fatalf("short window error %v should wrap ErrNoFrame", err)
	}
}

func TestCorruptedCRCDetected(t *testing.T) {
	r := Default()
	payload := []byte{9, 9, 9, 9}
	sig, _ := r.Modulate(payload, fs)
	rx := make([]complex128, len(sig)+1000)
	dsp.Add(rx, sig, 300)
	// Hit a narrow burst in the middle of the payload region with strong
	// interference.
	mid := 300 + len(sig)*3/4
	for i := mid; i < mid+120 && i < len(rx); i++ {
		rx[i] += complex(3, 3)
	}
	frame, err := r.Demodulate(rx, fs)
	if err == nil && frame.CRCOK && !bytes.Equal(frame.Payload, payload) {
		t.Fatal("corrupted frame passed CRC with wrong payload")
	}
}

func TestModulateRejects(t *testing.T) {
	r := Default()
	if _, err := r.Modulate(nil, fs); err == nil {
		t.Fatal("empty payload")
	}
	if _, err := r.Modulate(make([]byte, 97), fs); err == nil {
		t.Fatal("oversized payload")
	}
}

func TestMaxPacketSamplesCoversModulated(t *testing.T) {
	r := Default()
	sig, err := r.Modulate(make([]byte, 96), fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPacketSamples(fs) < len(sig) {
		t.Fatalf("MaxPacketSamples %d < %d", r.MaxPacketSamples(fs), len(sig))
	}
}

func TestPreambleUnitPower(t *testing.T) {
	p := Default().Preamble(fs)
	if math.Abs(dsp.Power(p)-1) > 1e-9 {
		t.Fatalf("preamble power %v", dsp.Power(p))
	}
}

func BenchmarkModulate16B(b *testing.B) {
	r := Default()
	payload := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		if _, err := r.Modulate(payload, fs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemodulate16B(b *testing.B) {
	r := Default()
	payload := make([]byte, 16)
	sig, _ := r.Modulate(payload, fs)
	rx := make([]complex128, len(sig)+500)
	dsp.Add(rx, sig, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Demodulate(rx, fs); err != nil {
			b.Fatal(err)
		}
	}
}
