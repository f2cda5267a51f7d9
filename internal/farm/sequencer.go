package farm

import "sync"

// Sequencer restores submission order on a completion stream: callers
// Reserve a slot per submitted job, workers Deliver each slot's completion
// whenever it finishes, and the sequencer runs the callbacks strictly in
// slot order, one at a time. A cloud session uses one Sequencer per
// connection so decode replies leave in the order the segments arrived even
// though the farm completes them out of order.
//
// Callbacks run outside the sequencer's lock, on whichever Deliver call
// found no drain in progress: they are serialized with each other (safe to
// write to a shared connection) and may block — on a socket, say — without
// making Reserve or Deliver wait. A callback must not call Wait.
type Sequencer struct {
	mu       sync.Mutex
	idle     sync.Cond // signaled whenever next advances
	next     uint64    // advanced only after the slot's callback has run
	reserved uint64
	draining bool // a Deliver call is running callbacks; others only park
	pending  map[uint64]func()
}

// Reserve claims the next slot. The caller must eventually Deliver it, or
// every later slot (and Wait) will stall.
func (s *Sequencer) Reserve() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.reserved
	s.reserved++
	return slot
}

// Deliver hands in slot's completion and parks it. If no other Deliver is
// draining, this call runs every callback whose turn has come — fn itself
// when all earlier slots have run, plus any directly following parked
// slots — unlocking around each; otherwise the draining call picks fn up
// when its turn comes. Each slot must be delivered exactly once.
func (s *Sequencer) Deliver(slot uint64, fn func()) {
	s.mu.Lock()
	if s.pending == nil {
		s.pending = make(map[uint64]func())
	}
	s.pending[slot] = fn
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for {
		next, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		s.mu.Unlock()
		next()
		s.mu.Lock()
		s.next++
		s.idle.Broadcast() // Broadcast never touches idle.L; Wait sets it
	}
	s.draining = false
	s.mu.Unlock()
}

// Wait blocks until every reserved slot has been delivered and run. It is
// the session's pre-bye barrier: after Wait returns, all replies for
// admitted segments have been written.
func (s *Sequencer) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idle.L == nil {
		s.idle.L = &s.mu
	}
	for s.next < s.reserved {
		s.idle.Wait()
	}
}
