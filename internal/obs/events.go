package obs

import (
	"sync"
)

// EventVerbs is the closed verb vocabulary an event name must end with.
// Events record state transitions, so the final segment is always a verb:
// what happened, not what is. Keep in sync with the obsnames lint rule's
// documentation and DESIGN.md §14.
var EventVerbs = []string{
	"attach",    // a component joined a plane (shard attach)
	"backoff",   // a retry delay began (redial backoff)
	"compact",   // a durable-storage file was reclaimed (wal compact)
	"detach",    // a component left a plane (shard detach)
	"die",       // a session or connection failed
	"drop",      // a segment left the reliable path
	"enter",     // a mode was entered (degraded enter)
	"establish", // a session came up
	"exhaust",   // a retry budget ran out
	"exit",      // a mode was left (degraded exit)
	"reap",      // an idle session was collected
	"recover",   // persisted state was restored (wal window recover)
	"reject",    // an admission rejection (busy reject)
	"replay",    // an unacked segment was reshipped
	"resize",    // a plane changed shape
	"truncate",  // a corrupt tail was cut (wal tail truncate)
}

// ValidEventName reports whether name follows the subsystem_subject_verb
// scheme: lowercase snake_case, at least two segments, no empty or
// non-[a-z0-9] segments, first character a letter, final segment one of
// EventVerbs.
func ValidEventName(name string) bool {
	last, segments, ok := splitLastSegment(name)
	if !ok || segments < 2 {
		return false
	}
	for _, v := range EventVerbs {
		if last == v {
			return true
		}
	}
	return false
}

// splitLastSegment validates the snake_case body shared by event and
// health-check names and returns the final segment plus the segment count.
func splitLastSegment(name string) (last string, segments int, ok bool) {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return "", 0, false
	}
	segments = 1
	segStart := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '_' {
			if i == segStart {
				return "", 0, false // empty segment
			}
			last = name[segStart:i]
			segStart = i + 1
			if i < len(name) {
				segments++
			}
			continue
		}
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return "", 0, false
		}
	}
	return last, segments, true
}

// mustValidEventName guards Record against dynamic names the obsnames lint
// rule cannot see, mirroring the metric registry's panic contract.
func mustValidEventName(name string) {
	if !ValidEventName(name) {
		panic("obs: event name " + name + " does not follow subsystem_subject_verb (lowercase snake_case, >=2 segments, verb in EventVerbs)")
	}
}

// DefaultJournalRing is the event ring size when NewJournal is called with
// ringSize <= 0.
const DefaultJournalRing = 256

// Event is one recorded state transition.
type Event struct {
	// Seq is the journal-global sequence number of the event's first
	// occurrence; it never resets, so gaps reveal ring overwrites.
	Seq uint64 `json:"seq"`
	// At is the journal clock reading when the event was last recorded
	// (deterministic step counter by default, wall nanoseconds in
	// commands).
	At int64 `json:"at"`
	// Name is the subsystem_subject_verb event name.
	Name string `json:"name"`
	// Value is the event's magnitude, meaning defined per name (backoff
	// delay in millis, spool depth at drop, shard index, ...). The last
	// recorded value wins when a burst coalesces.
	Value int64 `json:"value"`
	// Count is how many consecutive occurrences this entry coalesces: a
	// busy-reject burst is one entry with Count = burst size.
	Count uint64 `json:"count"`
}

// Journal is a ring-buffered structured event recorder — a flight
// recorder for state transitions (reconnects, degraded-mode entry,
// session reaps, shard attach/detach). Recording is one short mutex
// critical section with no allocation, cheap enough to call from
// connection-management paths; it must still stay off per-sample hot
// loops. Consecutive records of the same name coalesce into one entry
// with a bumped Count, so an event burst cannot wash the history of the
// transitions around it out of the ring.
//
// The zero clock is a deterministic step counter (every record advances
// it by one), which keeps library code replayable under the
// nondeterminism rule; commands inject the wall clock with SetClock. All
// methods are nil-safe so instrumented code never needs a "journal
// enabled?" branch.
type Journal struct {
	clock func() int64

	mu    sync.Mutex
	ring  []Event
	next  int    // slot the next new entry lands in
	seq   uint64 // entries ever appended (the next entry's Seq)
	steps int64  // deterministic default clock
	last  int    // ring index of the most recent entry, -1 when empty
}

// NewJournal builds a journal whose ring keeps the last ringSize entries
// (<= 0 means DefaultJournalRing).
func NewJournal(ringSize int) *Journal {
	if ringSize <= 0 {
		ringSize = DefaultJournalRing
	}
	return &Journal{ring: make([]Event, ringSize), last: -1}
}

// SetClock replaces the deterministic step clock, typically with
// func() int64 { return time.Now().UnixNano() }. Call before the journal
// is shared across goroutines.
func (j *Journal) SetClock(clock func() int64) {
	if j != nil {
		j.clock = clock
	}
}

// Record appends one event (or coalesces it into the most recent entry
// when the name repeats consecutively). The name must follow the
// subsystem_subject_verb scheme (see ValidEventName); the value's meaning
// is defined per event name. Nil-safe.
func (j *Journal) Record(name string, value int64) {
	if j == nil {
		return
	}
	mustValidEventName(name)
	j.mu.Lock()
	now := j.now()
	if j.last >= 0 && j.ring[j.last].Name == name {
		j.ring[j.last].Count++
		j.ring[j.last].Value = value
		j.ring[j.last].At = now
		j.mu.Unlock()
		return
	}
	j.ring[j.next] = Event{Seq: j.seq, At: now, Name: name, Value: value, Count: 1}
	j.last = j.next
	j.next = (j.next + 1) % len(j.ring)
	j.seq++
	j.mu.Unlock()
}

// now reads the clock; callers hold j.mu (the step counter needs it).
func (j *Journal) now() int64 {
	if j.clock != nil {
		return j.clock()
	}
	j.steps++
	return j.steps
}

// Recent returns the ring's entries, oldest first. The slice is a copy;
// a nil journal returns nil.
func (j *Journal) Recent() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int(j.seq)
	if j.seq > uint64(len(j.ring)) {
		n = len(j.ring)
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := i
		if j.seq > uint64(len(j.ring)) {
			idx = (j.next + i) % len(j.ring)
		}
		out = append(out, j.ring[idx])
	}
	return out
}

// Names returns the distinct event names recorded and still in the ring,
// oldest-first by first appearance — a compact fingerprint for tests and
// fault dumps.
func (j *Journal) Names() []string {
	events := j.Recent()
	seen := make(map[string]bool, len(events))
	var out []string
	for _, e := range events {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	return out
}
