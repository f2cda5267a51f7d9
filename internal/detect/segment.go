package detect

// Segment is a slice of a capture window selected for shipping to the
// edge/cloud. Per the paper, the gateway conservatively ships samples
// covering twice the maximum packet length around each detected preamble,
// so that even a late or early detection still contains the whole frame —
// and any frames colliding with it.
type Segment struct {
	Start   int          // first sample index within the capture
	Samples []complex128 // the extracted samples, a window of the capture
}

// ExtractSegments cuts one segment per detection: from maxPacket/2 samples
// before the event to 3·maxPacket/2 after it (total 2× the maximum packet
// length), clipped to the capture bounds. Overlapping segments are merged
// so a collision of several technologies ships as one contiguous block.
// Each segment's Samples alias rx (capped at the segment's end, so an
// append cannot write into rx); a caller that keeps a segment beyond rx's
// lifetime copies it.
func ExtractSegments(rx []complex128, detections []Detection, maxPacket int) []Segment {
	if maxPacket < 1 {
		maxPacket = 1
	}
	type span struct{ lo, hi int }
	var spans []span
	for _, d := range detections {
		lo := d.Index - maxPacket/2
		hi := d.Index + 3*maxPacket/2
		if lo < 0 {
			lo = 0
		}
		if hi > len(rx) {
			hi = len(rx)
		}
		if hi <= lo {
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	// detections come ordered by index; merge overlaps
	var merged []span
	for _, s := range spans {
		if n := len(merged); n > 0 && s.lo <= merged[n-1].hi {
			if s.hi > merged[n-1].hi {
				merged[n-1].hi = s.hi
			}
			continue
		}
		merged = append(merged, s)
	}
	out := make([]Segment, 0, len(merged))
	for _, s := range merged {
		out = append(out, Segment{Start: s.lo, Samples: rx[s.lo:s.hi:s.hi]})
	}
	return out
}
