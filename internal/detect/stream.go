package detect

// Stream runs a Detector continuously over an unbounded sample stream,
// handling packets that straddle capture boundaries. Captures pushed into
// the stream are concatenated in a sliding buffer; detections whose
// shipped segment could still grow (because the packet may extend past the
// buffered samples) are deferred until enough subsequent samples arrive,
// and the buffer tail is carried over so nothing is lost at the seams.
type Stream struct {
	det       Detector
	maxPacket int

	buf     []complex128
	base    int64 // absolute index of buf[0]
	emitted int64 // absolute high-water mark of emitted segment ends
}

// StreamSegment is a segment with an absolute start index.
type StreamSegment struct {
	Start   int64
	Samples []complex128
}

// NewStream wraps a detector for continuous operation. maxPacket is the
// largest packet airtime in samples across the supported technologies.
func NewStream(det Detector, maxPacket int) *Stream {
	if maxPacket < 1 {
		maxPacket = 1
	}
	return &Stream{det: det, maxPacket: maxPacket}
}

// Push appends a capture and returns every segment that is now complete.
// Segments whose tail is within maxPacket/2 of the buffer end are held
// back until the next Push (or Flush), because the packet they cover may
// extend into samples not yet seen.
func (s *Stream) Push(capture []complex128) []StreamSegment {
	s.buf = append(s.buf, capture...)
	out := s.collect(false)
	s.trim()
	return out
}

// Flush emits everything still pending, including segments at the buffer
// tail, and resets the carry-over. Call when the stream ends.
func (s *Stream) Flush() []StreamSegment {
	out := s.collect(true)
	s.base += int64(len(s.buf))
	s.buf = nil
	return out
}

// collect runs detection over the current buffer and emits segments; when
// final is false, segments touching the last maxPacket/2 samples are
// withheld.
func (s *Stream) collect(final bool) []StreamSegment {
	if len(s.buf) == 0 {
		return nil
	}
	dets := s.det.Detect(s.buf)
	segs := ExtractSegments(s.buf, dets, s.maxPacket)
	var out []StreamSegment
	holdBack := len(s.buf) - s.maxPacket/2
	for _, seg := range segs {
		end := seg.Start + len(seg.Samples)
		if !final && end > holdBack {
			continue // may still grow; wait for more samples
		}
		absStart := s.base + int64(seg.Start)
		absEnd := s.base + int64(end)
		if absEnd <= s.emitted {
			continue // already emitted in a previous overlap window
		}
		// Clip the head if it overlaps what we already emitted, so
		// downstream consumers never see duplicate samples.
		clip := 0
		if absStart < s.emitted {
			clip = int(s.emitted - absStart)
			if clip >= len(seg.Samples) {
				continue
			}
		}
		//lint:ignore hotloopalloc each emitted segment escapes via the result and needs its own backing buffer
		samples := make([]complex128, len(seg.Samples)-clip)
		copy(samples, seg.Samples[clip:]) // seg aliases buf, which trim reuses
		out = append(out, StreamSegment{Start: absStart + int64(clip), Samples: samples})
		s.emitted = absEnd
	}
	return out
}

// trim discards buffered samples that can no longer participate in any
// future segment: everything older than 2×maxPacket from the buffer end
// stays available so a late detection can still reach back maxPacket/2 and
// a straddling packet can complete.
func (s *Stream) trim() {
	keep := 2 * s.maxPacket
	if len(s.buf) <= keep {
		return
	}
	drop := len(s.buf) - keep
	s.buf = append(s.buf[:0], s.buf[drop:]...)
	s.base += int64(drop)
}

// Pending returns the number of samples currently buffered.
func (s *Stream) Pending() int { return len(s.buf) }
