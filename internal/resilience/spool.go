package resilience

import (
	"sync"

	"repro/internal/backhaul"
	"repro/internal/obs"
)

// Item is one admitted segment waiting to be shipped, carried with the
// trace span that has followed it since detection so the drop/ship outcome
// lands on the same timeline as its detect and edge_decode stages.
type Item struct {
	Seg  backhaul.Segment
	Span *obs.Span
	// WAL is the item's write-ahead-log record id when the gateway journaled
	// it before spooling (0 = not journaled). Whoever finally handles the item
	// — cloud ack, busy reject, degraded decode — acks this id so the
	// record is not replayed after a restart.
	WAL uint64
	// Recovered marks an item restored from the WAL on restart. Its
	// original detect-time span died with the previous process, so the
	// sender opens a fresh wal_replay span on the segment's original trace
	// (the trace ID rides inside Seg) when it ships.
	Recovered bool
}

// Spool is a bounded drop-oldest FIFO between the detection pipeline and
// the backhaul sender. The producer (the capture feeder) calls Put, which
// never blocks: when the spool is full the oldest queued item is evicted
// and handed back so the caller can route it through the degraded
// edge-only path and count the drop. The consumer receives from C(),
// which lets the sender select over the spool, acks, and session errors
// with the usual nil-channel gating.
//
// Single consumer; any number of producers. Put and Close may race freely:
// both serialize on mu, so a Put that loses the race against Close can
// never hit the closed channel — it reports the item back as dropped, and
// the caller routes it through the degraded path where the drop is
// counted, exactly as an eviction would be. The mu guard also keeps an
// eviction (receive under Put) and the consumer's own receive from C()
// from both claiming the same item without the compensating re-send being
// observed in order.
type Spool struct {
	mu     sync.Mutex
	ch     chan Item
	closed bool
}

// NewSpool builds a spool holding at most capacity items (minimum 1).
func NewSpool(capacity int) *Spool {
	if capacity < 1 {
		capacity = 1
	}
	return &Spool{ch: make(chan Item, capacity)}
}

// Put enqueues it, evicting the oldest queued item when full. The evicted
// item is returned with dropped=true so the caller can fall back to edge
// decode and bump the drop counters. Put on a closed spool reports the
// item itself as dropped.
func (s *Spool) Put(it Item) (evicted Item, dropped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return it, true
	}
	for {
		select {
		case s.ch <- it:
			return evicted, dropped
		default:
		}
		// Full: evict the oldest. The consumer may win the race for it,
		// in which case the buffer has drained and the retry send wins.
		select {
		case old := <-s.ch:
			evicted, dropped = old, true
		default:
		}
	}
}

// C returns the receive side of the spool. It is closed by Close after the
// producer has finished, so the consumer can range/drain it.
func (s *Spool) C() <-chan Item { return s.ch }

// Len reports how many items are currently queued.
func (s *Spool) Len() int { return len(s.ch) }

// Cap reports the spool capacity.
func (s *Spool) Cap() int { return cap(s.ch) }

// Close marks the spool finished and closes C. Items already queued remain
// receivable. Safe to call once; the producer must not Put afterwards
// (such Puts report dropped).
func (s *Spool) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ch)
}
