package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// twoBlocks is an air of two one-capture blocks: a lone XBee packet, then
// an XBee+Z-Wave collision whose XBee payload repeats block 0's.
func twoBlocks() *air {
	return &air{perBlock: 1, blocks: []block{
		{packets: []packet{{Tech: "xbee", Payload: []byte{1, 2, 3}, Block: 0}}},
		{packets: []packet{{Tech: "xbee", Payload: []byte{1, 2, 3}, Block: 1}, {Tech: "zwave", Payload: []byte{9}, Block: 1}}},
	}}
}

func frame(tech string, payload ...byte) frameReport {
	return frameReport{Tech: tech, Payload: payload, CRCOK: true}
}

func dueOracle(base int64) (*oracle, time.Time) {
	o := newOracle(twoBlocks(), 2, base)
	t0 := time.Now()
	o.setDue(0, t0)
	o.setDue(1, t0.Add(time.Second))
	return o, t0
}

func TestOracleMatchesEachPacketOnce(t *testing.T) {
	const base = 5 * captureLen
	o, t0 := dueOracle(base)
	o.report(framesReport{SegmentStart: base + 100, Frames: []frameReport{frame("xbee", 1, 2, 3)}}, t0.Add(30*time.Millisecond))
	o.report(framesReport{SegmentStart: base + captureLen + 7, Frames: []frameReport{frame("zwave", 9), frame("xbee", 1, 2, 3)}}, t0.Add(1500*time.Millisecond))
	c := gwCounters{Detections: 2, Shipped: 2}
	v := o.judge("gw", 3, 2, c, nil)
	if !v.correct() || v.CloudFrame != 3 || v.Reports != 2 || v.Ops != 2 || v.recoveryRatio() != 1 {
		t.Fatalf("clean session judged %+v", v)
	}
	if len(o.latencyMs) != 2 || !near(o.latencyMs[0], 30) || !near(o.latencyMs[1], 500) {
		t.Errorf("latencies %v, want [30 500] (timed from each block's due time)", o.latencyMs)
	}
}

func TestOracleRejectsWhatWasNotTransmitted(t *testing.T) {
	for name, c := range map[string]struct {
		frames []frameReport
		match  int
	}{
		"spurious payload":         {[]frameReport{frame("xbee", 7, 7, 7)}, 0},
		"wrong technology":         {[]frameReport{frame("zwave", 1, 2, 3)}, 0},
		"same packet twice":        {[]frameReport{frame("xbee", 1, 2, 3), frame("xbee", 1, 2, 3)}, 1},
		"packet of another block":  {[]frameReport{frame("zwave", 9)}, 0},
		"clean frame beside a bad": {[]frameReport{frame("xbee", 1, 2, 3), frame("lora", 4)}, 1},
	} {
		o, t0 := dueOracle(0)
		o.report(framesReport{SegmentStart: 10, Frames: c.frames}, t0.Add(time.Millisecond))
		v := o.judge("gw", 1, 1, gwCounters{Detections: 1, Shipped: 1}, nil)
		if v.Failed != 1 || v.CloudFrame != c.match || v.correct() {
			t.Errorf("%s: judged %+v, want 1 failed op and %d matched", name, v, c.match)
		}
	}
}

func TestOracleIgnoresFramesThatFailedTheirCRC(t *testing.T) {
	o, t0 := dueOracle(0)
	bad := frame("xbee", 7, 7, 7)
	bad.CRCOK = false
	o.report(framesReport{SegmentStart: 10, Frames: []frameReport{bad, frame("xbee", 1, 2, 3)}}, t0.Add(time.Millisecond))
	if v := o.judge("gw", 1, 1, gwCounters{Detections: 1, Shipped: 1}, nil); !v.correct() || v.CloudFrame != 1 {
		t.Errorf("judged %+v", v)
	}
}

func TestOracleSelfCheck(t *testing.T) {
	clean := gwCounters{Detections: 2, Shipped: 2}
	for name, c := range map[string]struct {
		play    func(o *oracle, t0 time.Time)
		count   gwCounters
		err     error
		failed  int
		problem string
	}{
		"segment reported twice": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(2*time.Second))
		}, clean, nil, 0, "reported twice"},
		"report before its block was due": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(500*time.Millisecond))
		}, clean, nil, 0, "not yet due"},
		"report outside the offered blocks": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: 2 * captureLen}, t0.Add(2*time.Second))
		}, clean, nil, 0, "outside the offered blocks"},
		"no report by the end": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
		}, clean, nil, 1, ""},
		"busy reject and spool drop": {func(o *oracle, t0 time.Time) {},
			gwCounters{Detections: 2, Shipped: 2, BusyRejects: 1, SpoolDropped: 1}, nil, 3, ""},
		"more reports than segments": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(2*time.Second))
		}, gwCounters{Detections: 2, Shipped: 1}, nil, 0, "2 reports for 1 shipped"},
		"session error": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(2*time.Second))
		}, clean, errors.New("broken pipe"), 1, "broken pipe"},
		"segment held back past its block": {func(o *oracle, t0 time.Time) {
			o.heldBack()
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(2*time.Second))
		}, clean, nil, 0, "not emitted inside the block"},
		"a block with two segments": {func(o *oracle, t0 time.Time) {
			o.report(framesReport{SegmentStart: 10}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: 20}, t0.Add(time.Millisecond))
			o.report(framesReport{SegmentStart: captureLen}, t0.Add(2*time.Second))
		}, gwCounters{Detections: 3, Shipped: 3}, nil, 0, "3 segments detected in 2 blocks"},
	} {
		o, t0 := dueOracle(0)
		c.play(o, t0)
		v := o.judge("gw", 3, 2, c.count, c.err)
		if v.correct() || v.Failed != c.failed {
			t.Errorf("%s: judged %+v, want %d failed and an incorrect run", name, v, c.failed)
		}
		if c.problem != "" && !strings.Contains(strings.Join(v.Problems, "\n"), c.problem) {
			t.Errorf("%s: problems %q do not mention %q", name, v.Problems, c.problem)
		}
		if v.Ops < v.Failed {
			t.Errorf("%s: %d failed of %d attempted", name, v.Failed, v.Ops)
		}
	}
}

func TestVerdictRatiosCountEdgeFrames(t *testing.T) {
	v := verdict{Packets: 8, CloudFrame: 4, EdgeFrames: 2, Ops: 4, Failed: 1}
	if v.recoveryRatio() != 0.75 || v.opFailRatio() != 0.25 {
		t.Errorf("ratios %v %v", v.recoveryRatio(), v.opFailRatio())
	}
	if (verdict{}).recoveryRatio() != 0 || (verdict{}).opFailRatio() != 0 {
		t.Error("empty verdict ratios should be 0")
	}
}
