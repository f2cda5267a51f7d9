package detect

import "testing"

// quietDetector is a Detector that never fires, isolating the Stream's own
// buffer management: with no segments to emit, a warmed-up Push must not
// allocate at all (the hotloopalloc rule's implied guarantee, tested).
type quietDetector struct{}

func (quietDetector) Name() string                       { return "quiet" }
func (quietDetector) Metric(rx []complex128) []float64   { return nil }
func (quietDetector) Detect(rx []complex128) []Detection { return nil }

// TestStreamSteadyStateAllocFree proves the detect hot loop reaches an
// allocation-free steady state: once the sliding buffer has grown to its
// working capacity (2×maxPacket carried over plus one capture), trim's
// append-into-prefix reuses the backing array and Push performs zero heap
// allocations per capture.
func TestStreamSteadyStateAllocFree(t *testing.T) {
	const maxPacket = 2048
	s := NewStream(quietDetector{}, maxPacket)
	capture := make([]complex128, 1024)

	// Warm up: let the buffer reach its trim plateau.
	for i := 0; i < 16; i++ {
		s.Push(capture)
	}
	if got := s.Pending(); got != 2*maxPacket {
		t.Fatalf("Pending() = %d after warmup, want %d", got, 2*maxPacket)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if out := s.Push(capture); out != nil {
			t.Fatal("quiet detector emitted a segment")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocates %.1f times per call, want 0", allocs)
	}
}
