package sim

import (
	"testing"

	"repro/internal/cancel"
	"repro/internal/detect"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func techs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

func TestGenTrafficDeterministic(t *testing.T) {
	cfg := TrafficConfig{Techs: techs(), SampleRate: fs, Duration: 400000, MeanGap: 0.05, SNRMin: 5, SNRMax: 15}
	s1, err := GenTraffic(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenTraffic(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Packets) != len(s2.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(s1.Packets), len(s2.Packets))
	}
	for i := range s1.Capture {
		if s1.Capture[i] != s2.Capture[i] {
			t.Fatalf("captures diverge at sample %d", i)
		}
	}
}

func TestGenTrafficProducesPacketsAndCollisions(t *testing.T) {
	cfg := TrafficConfig{Techs: techs(), SampleRate: fs, Duration: 1 << 20, MeanGap: 0.02, SNRMin: 10, SNRMax: 10}
	s, err := GenTraffic(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Packets) < 5 {
		t.Fatalf("only %d packets in 1 s of dense traffic", len(s.Packets))
	}
	collided := 0
	for i := range s.Packets {
		if s.Collides(i) {
			collided++
		}
	}
	if collided == 0 {
		t.Fatal("dense traffic produced no collisions")
	}
	// Ground truth must stay within capture bounds.
	for _, p := range s.Packets {
		if p.Offset < 0 || p.Offset+p.Length > len(s.Capture) {
			t.Fatalf("packet out of bounds: %+v", p)
		}
	}
}

func TestGenTrafficValidation(t *testing.T) {
	if _, err := GenTraffic(TrafficConfig{}, rng.New(1)); err == nil {
		t.Fatal("no techs should error")
	}
}

func TestGenCollisionOverlap(t *testing.T) {
	s, err := GenCollision([]CollisionSpec{
		{Tech: lora.Default(), SNRdB: 10, PayloadLen: 8},
		{Tech: xbee.Default(), SNRdB: 10, PayloadLen: 8, OffsetFrac: 0.1},
	}, fs, 5000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Packets) != 2 {
		t.Fatalf("%d packets", len(s.Packets))
	}
	if !s.Collides(0) || !s.Collides(1) {
		t.Fatal("collision episode does not overlap")
	}
	if s.AirtimeSeconds() <= 0 {
		t.Fatal("airtime")
	}
}

func TestEvaluateDetectionHighSNR(t *testing.T) {
	cfg := TrafficConfig{Techs: techs(), SampleRate: fs, Duration: 1 << 19, MeanGap: 0.1, SNRMin: 12, SNRMax: 15}
	s, err := GenTraffic(cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Packets) == 0 {
		t.Skip("no packets generated")
	}
	uni, err := detect.NewUniversal(techs(), fs, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	out := EvaluateDetection(s, uni, MaxPacketSamples(techs(), fs))
	if out.Ratio() < 0.9 {
		t.Fatalf("high-SNR detection ratio %.2f (%d/%d)", out.Ratio(), out.Detected, out.Total)
	}
}

func TestEvaluateDetectionEnergyFailsBelowNoise(t *testing.T) {
	cfg := TrafficConfig{Techs: techs(), SampleRate: fs, Duration: 1 << 19, MeanGap: 0.1, SNRMin: -15, SNRMax: -12}
	s, err := GenTraffic(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Packets) == 0 {
		t.Skip("no packets generated")
	}
	energy := detect.NewEnergy(1024, 6)
	out := EvaluateDetection(s, energy, MaxPacketSamples(techs(), fs))
	if out.Ratio() > 0.3 {
		t.Fatalf("energy detector should fail below the noise floor, got %.2f", out.Ratio())
	}
}

func TestEvaluateDecodeRecovers(t *testing.T) {
	s, err := GenCollision([]CollisionSpec{
		{Tech: lora.Default(), SNRdB: 12, PayloadLen: 10},
		{Tech: xbee.Default(), SNRdB: 12, PayloadLen: 10, OffsetFrac: 0.05},
	}, fs, 4000, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	out := EvaluateDecode(s, cancel.NewDecoder(techs(), fs))
	if out.Recovered != 2 {
		t.Fatalf("recovered %d of 2 (stats %+v)", out.Recovered, out.Stats)
	}
	if out.Throughput() <= 0 {
		t.Fatal("throughput should be positive")
	}
	if out.Spurious != 0 {
		t.Fatalf("spurious frames: %d", out.Spurious)
	}
	if len(out.Matched) != 2 || !out.Matched[0] || !out.Matched[1] {
		t.Fatalf("matched %v, want both packets claimed", out.Matched)
	}
}

func TestMaxPacketSamples(t *testing.T) {
	got := MaxPacketSamples(techs(), fs)
	if got != lora.Default().MaxPacketSamples(fs) {
		t.Fatalf("max packet %d should be lora's", got)
	}
}
