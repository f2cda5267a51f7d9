package detect

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func threeTechs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

func TestBuildUniversalThreeTechs(t *testing.T) {
	u, err := BuildUniversal(threeTechs(), fs)
	if err != nil {
		t.Fatal(err)
	}
	// LoRa, XBee and Z-Wave use three distinct waveform-level preambles in
	// this configuration, so three groups are expected.
	if len(u.Groups) != 3 {
		t.Fatalf("groups: %+v", u.Groups)
	}
	// Template length = longest representative (LoRa's 10.5 ksample
	// preamble), and unit power.
	loraLen := len(lora.Default().Preamble(fs))
	if len(u.Template) != loraLen {
		t.Fatalf("template length %d, want %d", len(u.Template), loraLen)
	}
	if p := dsp.Power(u.Template); math.Abs(p-1) > 1e-9 {
		t.Fatalf("template power %v", p)
	}
}

func TestBuildUniversalCoalescesIdenticalModulations(t *testing.T) {
	// Two GFSK technologies with identical air parameters must coalesce
	// into a single group represented by the shorter preamble.
	a, err := xbee.New(xbee.Config{PreambleLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := xbee.New(xbee.Config{PreambleLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildUniversal([]phy.Technology{a, b}, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Groups) != 1 {
		t.Fatalf("identical GFSK preambles should coalesce: %+v", u.Groups)
	}
	if len(u.Groups[0].Members) != 2 {
		t.Fatalf("group members %v", u.Groups[0].Members)
	}
}

func TestBuildUniversalErrors(t *testing.T) {
	if _, err := BuildUniversal(nil, fs); err == nil {
		t.Fatal("empty tech list should error")
	}
}

func TestUniversalDetectsEachTechnology(t *testing.T) {
	techs := threeTechs()
	det, err := NewUniversal(techs, fs, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(1)
	for _, tech := range techs {
		sig, err := tech.Modulate([]byte{1, 2, 3, 4, 5, 6, 7, 8}, fs)
		if err != nil {
			t.Fatal(err)
		}
		n := len(sig) + 40000
		rx := channel.Mix(n, []channel.Emission{{Samples: sig, Offset: 20000, SNRdB: 10}}, gen.Split(uint64(len(sig))), fs)
		dets := det.Detect(rx)
		// A detection succeeds if an event fires close enough to the packet
		// that the shipped segment (±maxPacket around the event) covers it:
		// anywhere from shortly before the preamble to the end of the frame.
		found := false
		for _, d := range dets {
			if d.Index > 20000-2000 && d.Index < 20000+len(sig) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not detected at 10 dB: %+v", tech.Name(), dets)
		}
	}
}

func TestUniversalDetectsCollision(t *testing.T) {
	techs := threeTechs()
	det, err := NewUniversal(techs, fs, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(2)
	l, _ := techs[0].Modulate([]byte{1, 2, 3, 4}, fs)
	x, _ := techs[1].Modulate([]byte{5, 6, 7, 8}, fs)
	n := 120000
	rx := channel.Mix(n, []channel.Emission{
		{Samples: l, Offset: 10000, SNRdB: 8},
		{Samples: x, Offset: 14000, SNRdB: 8},
	}, gen, fs)
	dets := det.Detect(rx)
	// Segment-coverage semantics: both packets are handled if at least one
	// event fires inside the collision's extent — the merged shipped
	// segment (2× max packet length around each event) then contains both
	// frames for the cloud to separate.
	covered := false
	for _, d := range dets {
		if d.Index > 8000 && d.Index < 14000+len(x) {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("collision not detected: %+v", dets)
	}
	_ = l
}

func TestUniversalBelowNoiseBeatsEnergy(t *testing.T) {
	// At -10 dB SNR the LoRa preamble must still be detectable by
	// correlation while energy detection sees nothing.
	techs := threeTechs()
	uni, err := NewUniversal(techs, fs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	energy := NewEnergy(1024, 3)
	gen := rng.New(3)
	sig, _ := techs[0].Modulate([]byte{1, 2, 3, 4, 5, 6}, fs)
	rx := channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: -10}}, gen, fs)

	uniHit := false
	for _, d := range uni.Detect(rx) {
		if d.Index > 28000 && d.Index < 32000 {
			uniHit = true
		}
	}
	if !uniHit {
		t.Fatal("universal preamble failed at -10 dB")
	}
	for _, d := range energy.Detect(rx) {
		if d.Index > 28000 && d.Index < 32000 {
			t.Fatal("energy detector should not see a -10 dB burst")
		}
	}
}

func TestEnergyDetectsStrongBurst(t *testing.T) {
	gen := rng.New(4)
	burst := dsp.Tone(20000, 30e3, 0, fs)
	rx := channel.Mix(100000, []channel.Emission{{Samples: burst, Offset: 40000, SNRdB: 15}}, gen, fs)
	d := NewEnergy(1024, 6)
	dets := d.Detect(rx)
	if len(dets) == 0 {
		t.Fatal("energy detector missed a 15 dB burst")
	}
	hit := false
	for _, det := range dets {
		if det.Index > 38000 && det.Index < 44000 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("detections misplaced: %+v", dets)
	}
}

func TestEnergyNoFalseAlarmsOnNoise(t *testing.T) {
	gen := rng.New(5)
	rx := channel.AWGN(200000, gen)
	d := NewEnergy(1024, 6)
	if dets := d.Detect(rx); len(dets) != 0 {
		t.Fatalf("false alarms on pure noise: %+v", dets)
	}
}

func TestMatchedBankOutperformsUniversalSlightly(t *testing.T) {
	// The matched bank's peak for a short-preamble tech must be at least as
	// high as the universal template's (the documented accuracy gap).
	techs := threeTechs()
	uni, _ := NewUniversal(techs, fs, 0.05)
	bank := NewMatchedBank(techs, fs, 0.05)
	gen := rng.New(6)
	sig, _ := techs[1].Modulate([]byte{9, 9, 9, 9}, fs) // xbee
	rx := channel.Mix(len(sig)+50000, []channel.Emission{{Samples: sig, Offset: 25000, SNRdB: 5}}, gen, fs)
	peakNear := func(metric []float64) float64 {
		best := 0.0
		for i := 23000; i < 27000 && i < len(metric); i++ {
			if metric[i] > best {
				best = metric[i]
			}
		}
		return best
	}
	up := peakNear(uni.Metric(rx))
	bp := peakNear(bank.Metric(rx))
	if bp <= up {
		t.Fatalf("matched bank peak %v should exceed universal %v for short preambles", bp, up)
	}
}

func TestChunkedMetricSurvivesCFO(t *testing.T) {
	techs := threeTechs()
	coherent, _ := NewUniversal(techs, fs, 0.05)
	chunked, _ := NewUniversal(techs, fs, 0.05)
	chunked.Chunk = 1024
	gen := rng.New(7)
	sig, _ := techs[0].Modulate([]byte{1, 2, 3, 4}, fs)
	const cfo = 2000.0
	rx := channel.Mix(len(sig)+40000, []channel.Emission{{Samples: sig, Offset: 20000, SNRdB: 10, CFO: cfo}}, gen, fs)
	peakNear := func(metric []float64) float64 {
		best := 0.0
		for i := 18000; i < 22000 && i < len(metric); i++ {
			if metric[i] > best {
				best = metric[i]
			}
		}
		return best
	}
	cp := peakNear(coherent.Metric(rx))
	kp := peakNear(chunked.Metric(rx))
	if kp <= cp {
		t.Fatalf("chunked metric %v should beat coherent %v under 2 kHz CFO", kp, cp)
	}
}

func TestDetectorNames(t *testing.T) {
	techs := threeTechs()
	uni, _ := NewUniversal(techs, fs, 0.1)
	if uni.Name() != "universal" {
		t.Fatal("universal name")
	}
	if NewMatchedBank(techs, fs, 0.1).Name() != "matched" {
		t.Fatal("matched name")
	}
	if NewEnergy(128, 3).Name() != "energy" {
		t.Fatal("energy name")
	}
}

func TestExtractSegments(t *testing.T) {
	rx := make([]complex128, 10000)
	for i := range rx {
		rx[i] = complex(float64(i), 0)
	}
	segs := ExtractSegments(rx, []Detection{{Index: 2000}, {Index: 7000}}, 1000)
	if len(segs) != 2 {
		t.Fatalf("segments %d", len(segs))
	}
	if segs[0].Start != 1500 || len(segs[0].Samples) != 2000 {
		t.Fatalf("segment 0: start %d len %d", segs[0].Start, len(segs[0].Samples))
	}
	if real(segs[0].Samples[0]) != 1500 {
		t.Fatal("segment content misaligned")
	}
}

func TestExtractSegmentsMergesOverlaps(t *testing.T) {
	rx := make([]complex128, 10000)
	segs := ExtractSegments(rx, []Detection{{Index: 2000}, {Index: 2500}}, 1000)
	if len(segs) != 1 {
		t.Fatalf("overlapping detections should merge: %d segments", len(segs))
	}
	if segs[0].Start != 1500 || len(segs[0].Samples) != 2500 {
		t.Fatalf("merged segment start %d len %d", segs[0].Start, len(segs[0].Samples))
	}
}

func TestExtractSegmentsClipsBounds(t *testing.T) {
	rx := make([]complex128, 1000)
	segs := ExtractSegments(rx, []Detection{{Index: 100}}, 4000)
	if len(segs) != 1 || segs[0].Start != 0 || len(segs[0].Samples) != 1000 {
		t.Fatalf("clip failed: %+v", segs)
	}
}
