package sim

import (
	"bytes"

	"repro/internal/cancel"
	"repro/internal/detect"
	"repro/internal/phy"
)

// DetectionOutcome summarizes a detector's performance on a scenario.
type DetectionOutcome struct {
	Total     int     // ground-truth packets
	Detected  int     // packets covered by a shipped segment
	Events    int     // raw detection events
	Collided  int     // ground-truth packets that overlapped another
	FalseRate float64 // events not covering any packet / events
}

// EvaluateDetection scores a detector against a scenario using segment-
// coverage semantics: a packet counts as detected if at least one shipped
// segment (2× maxPacket around each event, merged) fully contains it —
// which is precisely the gateway's job (Sec. 4: ship detections, discard
// noise).
func EvaluateDetection(s Scenario, det detect.Detector, maxPacket int) DetectionOutcome {
	events := det.Detect(s.Capture)
	segments := detect.ExtractSegments(s.Capture, events, maxPacket)
	out := DetectionOutcome{Total: len(s.Packets), Events: len(events)}
	for i, p := range s.Packets {
		if s.Collides(i) {
			out.Collided++
		}
		for _, seg := range segments {
			if seg.Start <= p.Offset && seg.Start+len(seg.Samples) >= p.Offset+p.Length {
				out.Detected++
				break
			}
		}
	}
	// false alarms: events whose segment covers no packet at all
	false_ := 0
	for _, ev := range events {
		hit := false
		for _, p := range s.Packets {
			if ev.Index >= p.Offset-maxPacket/2 && ev.Index <= p.Offset+p.Length {
				hit = true
				break
			}
		}
		if !hit {
			false_++
		}
	}
	if len(events) > 0 {
		out.FalseRate = float64(false_) / float64(len(events))
	}
	return out
}

// Ratio returns detected/total, or 0 for an empty scenario.
func (o DetectionOutcome) Ratio() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Detected) / float64(o.Total)
}

// DecodeOutcome summarizes a collision decoder's performance.
type DecodeOutcome struct {
	Total     int     // ground-truth packets
	Recovered int     // frames decoded with matching tech+payload
	Spurious  int     // CRC-valid frames matching no ground truth
	Bits      int     // payload bits successfully recovered
	Seconds   float64 // episode airtime
	Stats     cancel.Stats
	Matched   []bool // per ground-truth packet: recovered by some frame
}

// Throughput returns recovered payload bits per second.
func (o DecodeOutcome) Throughput() float64 {
	if o.Seconds <= 0 {
		return 0
	}
	return float64(o.Bits) / o.Seconds
}

// EvaluateDecode runs a decoder over the scenario capture and scores the
// recovered frames against ground truth. A frame matches if technology and
// payload agree with an unclaimed ground-truth packet; Matched records which
// packets were claimed, for consumers that need per-frame outcomes (the MAC
// retransmission model).
func EvaluateDecode(s Scenario, dec *cancel.Decoder) DecodeOutcome {
	frames, stats := dec.Decode(s.Capture)
	out := DecodeOutcome{
		Total:   len(s.Packets),
		Seconds: s.AirtimeSeconds(),
		Stats:   stats,
		Matched: make([]bool, len(s.Packets)),
	}
	for _, f := range frames {
		matched := false
		for i, p := range s.Packets {
			if out.Matched[i] || f.Tech != p.Tech || !bytes.Equal(f.Payload, p.Payload) {
				continue
			}
			out.Matched[i] = true
			matched = true
			out.Recovered++
			out.Bits += len(p.Payload) * 8
			break
		}
		if !matched {
			out.Spurious++
		}
	}
	return out
}

// MaxPacketSamples returns the largest MaxPacketSamples across techs at fs.
func MaxPacketSamples(techs []phy.Technology, fs float64) int {
	max := 0
	for _, t := range techs {
		if n := t.MaxPacketSamples(fs); n > max {
			max = n
		}
	}
	return max
}
