package sensing

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func obs(tech string, t float64, mag float64) Observation {
	return Observation{Tech: tech, Time: t, Gain: complex(mag, 0)}
}

func TestLearningPhaseDoesNotFlag(t *testing.T) {
	tr := NewTracker(2)
	for i := 0; i < 3; i++ {
		if flagged, _ := tr.Observe(obs("lora", float64(i), 1.0)); flagged {
			t.Fatal("flagged during learning")
		}
	}
}

func TestFlagsDropAndRecovers(t *testing.T) {
	tr := NewTracker(2)
	ti := 0.0
	for i := 0; i < 8; i++ {
		tr.Observe(obs("lora", ti, 1.0))
		ti++
	}
	// 6 dB drop
	for i := 0; i < 5; i++ {
		flagged, dev := tr.Observe(obs("lora", ti, 0.5))
		if !flagged {
			t.Fatalf("drop not flagged at %v", ti)
		}
		if math.Abs(dev+6.02) > 0.1 {
			t.Fatalf("deviation %v, want ~-6 dB", dev)
		}
		ti++
	}
	// recovery closes the event
	tr.Observe(obs("lora", ti, 1.0))
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	ev := events[0]
	if ev.Count != 5 || ev.MeanDropDB > -5 {
		t.Fatalf("event %+v", ev)
	}
	if ev.Start != 8 || ev.End != 12 {
		t.Fatalf("event bounds %v..%v", ev.Start, ev.End)
	}
}

func TestBaselineNotPoisonedByEvent(t *testing.T) {
	// Flagged observations must not enter the baseline, so a long event
	// stays flagged throughout.
	tr := NewTracker(2)
	for i := 0; i < 8; i++ {
		tr.Observe(obs("xbee", float64(i), 1.0))
	}
	for i := 8; i < 40; i++ {
		flagged, _ := tr.Observe(obs("xbee", float64(i), 0.4))
		if !flagged {
			t.Fatalf("long event unflagged at %d (baseline drifted)", i)
		}
	}
}

func TestRiseAlsoFlags(t *testing.T) {
	tr := NewTracker(2)
	for i := 0; i < 8; i++ {
		tr.Observe(obs("zwave", float64(i), 1.0))
	}
	if flagged, dev := tr.Observe(obs("zwave", 9, 2.0)); !flagged || dev < 5 {
		t.Fatalf("6 dB rise not flagged (dev %v)", dev)
	}
}

func TestCoverageCountsTechnologies(t *testing.T) {
	tr := NewTracker(2)
	for i := 0; i < 8; i++ {
		tr.Observe(obs("lora", float64(i), 1.0))
		tr.Observe(obs("xbee", float64(i)+0.5, 1.0))
	}
	tr.Observe(obs("lora", 20, 0.3))
	tr.Observe(obs("xbee", 21, 0.3))
	if c := tr.Coverage(); c != 2 {
		t.Fatalf("coverage %d", c)
	}
}

func TestSmallFadingNotFlagged(t *testing.T) {
	tr := NewTracker(3)
	gen := rng.New(1)
	flagged := 0
	for i := 0; i < 200; i++ {
		// ±0.5 dB fading jitter
		mag := math.Pow(10, (gen.Float64()-0.5)/20)
		if f, _ := tr.Observe(obs("lora", float64(i), mag)); f {
			flagged++
		}
	}
	if flagged > 4 {
		t.Fatalf("%d false flags from mild fading", flagged)
	}
}

func TestInvalidGainIgnored(t *testing.T) {
	tr := NewTracker(2)
	if flagged, _ := tr.Observe(Observation{Tech: "lora", Gain: 0}); flagged {
		t.Fatal("zero gain flagged")
	}
	if flagged, _ := tr.Observe(Observation{Tech: "lora", Gain: complex(math.NaN(), 0)}); flagged {
		t.Fatal("NaN gain flagged")
	}
}

func TestOpenEventReported(t *testing.T) {
	tr := NewTracker(2)
	for i := 0; i < 8; i++ {
		tr.Observe(obs("lora", float64(i), 1.0))
	}
	tr.Observe(obs("lora", 9, 0.4))
	events := tr.Events()
	if len(events) != 1 || events[0].Count != 1 {
		t.Fatalf("open event not reported: %+v", events)
	}
}
