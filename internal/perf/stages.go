package perf

import (
	"fmt"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/oqpsk"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
	"repro/internal/sim"
)

// benchSampleRate matches the paper's gateway capture rate (and
// galiot.SampleRate; internal/perf cannot import the facade).
const benchSampleRate = 1e6

// Seed-split lanes: each stage's workload generator derives from the root
// seed through a fixed lane so adding a stage never perturbs the others.
const (
	laneTraffic = iota
	laneColl2
	laneColl3
	laneCollDSSS
)

// workbench carries what every stage build shares.
type workbench struct {
	opts Options
}

// gen derives the deterministic generator for one lane of the seed.
func (b *workbench) gen(lane uint64) *rng.Rand {
	return rng.New(b.opts.Seed).Split(lane)
}

// techs returns fresh prototype technology instances (LoRa, XBee, Z-Wave —
// the paper's set, same order as the galiot facade).
func (b *workbench) techs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

// traceBox lets runStage swap in a fresh tracer before the timed loop
// while stage closures keep one stable pointer to read through; the
// tracer's sink folds each finished span's stages into agg. Stages run on
// the calling goroutine, so the sink needs no lock.
type traceBox struct {
	t     *obs.Tracer
	agg   map[string]*SubStage
	names []string // agg's keys in first-seen order
}

// runner is one built stage: a closed-over workload plus metadata.
type runner struct {
	samplesPerIter int
	// run executes one iteration and returns the frames (or segments)
	// produced.
	run func() int
	// trace, when set, folds sub-stage spans (runStage resets it before
	// the timed loop and reads it after).
	trace *traceBox
	// stats, when set, accumulates decode statistics across iterations.
	stats *cancel.Stats
}

// stageDef declares one stage of the harness. Every stage runs on the
// calling goroutine, so the allocation probe attributes every malloc to
// the stage and every stage gates (compare.go).
type stageDef struct {
	name string
	// Fixed iteration counts — never adaptive, so workload identity is
	// byte-stable across hosts and runs.
	quickIters int
	fullIters  int
	build      func(b *workbench) (*runner, error)
}

// trafficLen is the detect workload size in samples — one frontend
// capture buffer per iteration. It must comfortably exceed twice the
// largest packet airtime of the stage's technologies: detect.Stream holds
// back any segment within maxPacket/2 of the buffer end, so pushes smaller
// than a packet never clear the hold-back window and the stream emits
// nothing (the gateway likewise pushes whole capture buffers).
func trafficLen(quick bool) int {
	if quick {
		return 1 << 18
	}
	return 1 << 19
}

// stageDefs returns every stage in execution order. Stage names are part
// of the BENCH.json contract (DESIGN.md §12); renaming or dropping one
// orphans its baseline entry, which fails the gate until the baseline is
// edited to match (TestBaselineCoversStages).
func stageDefs() []stageDef {
	return []stageDef{
		{name: "detect_stream", quickIters: 4, fullIters: 16, build: buildDetectStream},
		{name: "edge_decode", quickIters: 6, fullIters: 24, build: buildEdgeDecode},
		{name: "backhaul_encode", quickIters: 64, fullIters: 256, build: buildBackhaulEncode},
		{name: "backhaul_decode", quickIters: 64, fullIters: 256, build: buildBackhaulDecode},
		{name: "sic_decode", quickIters: 4, fullIters: 16, build: buildSICDecode},
		{name: "cloud_decode", quickIters: 4, fullIters: 16, build: buildCloudDecode},
		{name: "kill_freq", quickIters: 16, fullIters: 64, build: buildKillFreq},
		{name: "kill_css", quickIters: 8, fullIters: 32, build: buildKillCSS},
		{name: "kill_codes", quickIters: 40, fullIters: 160, build: buildKillCodes},
	}
}

// coll2 renders the standard 2-way collision workload.
func (b *workbench) coll2() (sim.Scenario, error) {
	techs := b.techs()
	return sim.GenCollision([]sim.CollisionSpec{
		{Tech: techs[0], SNRdB: 12, PayloadLen: 8},
		{Tech: techs[1], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
	}, benchSampleRate, 4000, b.gen(laneColl2))
}

// coll3 renders the 3-way collision exercising every prototype technology
// (mirrors BenchmarkAblationKillFilters).
func (b *workbench) coll3() (sim.Scenario, error) {
	techs := b.techs()
	return sim.GenCollision([]sim.CollisionSpec{
		{Tech: techs[0], SNRdB: 12, PayloadLen: 8},
		{Tech: techs[1], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
		{Tech: techs[2], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.1},
	}, benchSampleRate, 4000, b.gen(laneColl3))
}

// buildDetectStream replays seeded multi-tech traffic through the
// continuous detection stream, one whole capture buffer per Push, the way
// the gateway's frontend loop does. The stage uses the FSK/DSSS subset
// (XBee + Z-Wave): LoRa's maximum airtime at SF7 is ~174k samples, which
// would demand multi-megasample captures before the stream's hold-back
// window lets any segment out — out of scale for a harness iteration.
func buildDetectStream(b *workbench) (*runner, error) {
	techs := []phy.Technology{xbee.Default(), zwave.Default()}
	scen, err := sim.GenTraffic(sim.TrafficConfig{
		Techs:      techs,
		SampleRate: benchSampleRate,
		Duration:   trafficLen(b.opts.Quick),
		MeanGap:    0.12,
		SNRMin:     8,
		SNRMax:     15,
	}, b.gen(laneTraffic))
	if err != nil {
		return nil, err
	}
	det, err := detect.NewUniversal(techs, benchSampleRate, 0.08)
	if err != nil {
		return nil, err
	}
	maxPacket := 0
	for _, t := range techs {
		if n := t.MaxPacketSamples(benchSampleRate); n > maxPacket {
			maxPacket = n
		}
	}
	stream := detect.NewStream(det, maxPacket)
	capture := scen.Capture
	return &runner{
		samplesPerIter: len(capture),
		run: func() int {
			return len(stream.Push(capture))
		},
	}, nil
}

// buildEdgeDecode measures the gateway's edge policy (cancel.Decoder.EdgeDecode)
// on a 2-way collision: one classification, a second technology above the
// collision score, no demodulation — the cost the edge pays before deciding
// to ship.
func buildEdgeDecode(b *workbench) (*runner, error) {
	scen, err := b.coll2()
	if err != nil {
		return nil, err
	}
	dec := cancel.NewDecoder(b.techs(), benchSampleRate)
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			if dec.EdgeDecode(scen.Capture, false) != nil {
				return 1
			}
			return 0
		},
	}, nil
}

// buildBackhaulEncode measures segment serialization (AGC + quantize +
// DEFLATE + CRC) with the codec the gateway ships.
func buildBackhaulEncode(b *workbench) (*runner, error) {
	scen, err := b.coll2()
	if err != nil {
		return nil, err
	}
	seg := backhaul.Segment{Start: 0, SampleRate: benchSampleRate, Samples: scen.Capture}
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			if _, err := backhaul.DefaultCodec.Encode(seg); err != nil {
				panic(fmt.Sprintf("perf: backhaul encode: %v", err))
			}
			return 0
		},
	}, nil
}

// buildBackhaulDecode measures the receive side of the codec on a payload
// encoded once up front.
func buildBackhaulDecode(b *workbench) (*runner, error) {
	scen, err := b.coll2()
	if err != nil {
		return nil, err
	}
	payload, err := backhaul.DefaultCodec.Encode(backhaul.Segment{
		Start: 0, SampleRate: benchSampleRate, Samples: scen.Capture,
	})
	if err != nil {
		return nil, err
	}
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			if _, err := backhaul.DecodeSegment(payload); err != nil {
				panic(fmt.Sprintf("perf: backhaul decode: %v", err))
			}
			return 0
		},
	}, nil
}

// buildSICDecode measures the plain SIC baseline (full rounds, no kill
// filters) on the 3-way collision.
func buildSICDecode(b *workbench) (*runner, error) {
	scen, err := b.coll3()
	if err != nil {
		return nil, err
	}
	dec := cancel.NewSIC(b.techs(), benchSampleRate)
	stats := &cancel.Stats{}
	box := &traceBox{}
	return &runner{
		samplesPerIter: len(scen.Capture),
		stats:          stats,
		trace:          box,
		run: func() int {
			sp := box.t.Start("perf-sic", 0)
			frames, st := dec.DecodeTraced(scen.Capture, sp)
			sp.End()
			stats.Add(st)
			return len(frames)
		},
	}, nil
}

// buildCloudDecode measures full Algorithm 1 (SIC wrapped around the kill
// filters) on the 3-way collision; traced spans break the cost into
// sic_round and kill_* sub-stages.
func buildCloudDecode(b *workbench) (*runner, error) {
	scen, err := b.coll3()
	if err != nil {
		return nil, err
	}
	dec := cancel.NewDecoder(b.techs(), benchSampleRate)
	stats := &cancel.Stats{}
	box := &traceBox{}
	return &runner{
		samplesPerIter: len(scen.Capture),
		stats:          stats,
		trace:          box,
		run: func() int {
			sp := box.t.Start("perf-cloud", 0)
			frames, st := dec.DecodeTraced(scen.Capture, sp)
			sp.End()
			stats.Add(st)
			return len(frames)
		},
	}, nil
}

// buildKillFreq measures KILL-FREQUENCY: notching the XBee GFSK tones out
// of the 3-way collision.
func buildKillFreq(b *workbench) (*runner, error) {
	scen, err := b.coll3()
	if err != nil {
		return nil, err
	}
	radio := xbee.Default()
	tones := radio.Tones()
	width := cancel.FSKKillWidth(radio.BitRate())
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			cancel.KillFrequency(scen.Capture, tones, width, benchSampleRate)
			return 0
		},
	}, nil
}

// buildKillCSS measures KILL-CSS: dechirp, notch and re-chirp the LoRa
// energy in the 3-way collision.
func buildKillCSS(b *workbench) (*runner, error) {
	scen, err := b.coll3()
	if err != nil {
		return nil, err
	}
	killer := cancel.NewCSSKiller(lora.Default())
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			killer.Apply(scen.Capture, benchSampleRate)
			return 0
		},
	}, nil
}

// buildKillCodes measures KILL-CODES: projecting the O-QPSK DSSS burst out
// of a collision with Z-Wave.
func buildKillCodes(b *workbench) (*runner, error) {
	scen, err := sim.GenCollision([]sim.CollisionSpec{
		{Tech: oqpsk.Default(), SNRdB: 12, PayloadLen: 8},
		{Tech: zwave.Default(), SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
	}, benchSampleRate, 4000, b.gen(laneCollDSSS))
	if err != nil {
		return nil, err
	}
	coded := oqpsk.Default()
	return &runner{
		samplesPerIter: len(scen.Capture),
		run: func() int {
			cancel.KillCodes(scen.Capture, coded, benchSampleRate, 0.05)
			return 0
		},
	}, nil
}
