package obs

import (
	"sort"
	"sync"
)

// DefaultTraceStoreCapacity bounds retained traces when the config does
// not say otherwise.
const DefaultTraceStoreCapacity = 512

// DefaultTraceSampleEvery is the default head-sampling rate for ordinary
// traces: 1 in N new traces is promoted to keeper regardless of what
// happens to it later, so the store always holds a representative slice
// of healthy traffic next to the interesting tail.
const DefaultTraceSampleEvery = 16

// TraceStoreConfig sizes a TraceStore and declares its retention policy.
type TraceStoreConfig struct {
	// Capacity is the maximum number of traces retained (<= 0 means
	// DefaultTraceStoreCapacity).
	Capacity int
	// SampleEvery promotes 1 in N new traces to keeper (<= 0 means
	// DefaultTraceSampleEvery; 1 keeps everything).
	SampleEvery int
	// Obs registers trace_* metrics when non-nil.
	Obs *Registry
	// Journal records eviction/sampling events when non-nil.
	Journal *Journal
}

// traceEntry is one assembled trace: every ingested span that carried
// its trace ID, plus the retention classification accumulated so far.
type traceEntry struct {
	id    uint64
	spans []SpanSnapshot
	keep  bool
}

// TraceStep is one attributed stage on a trace's critical path.
type TraceStep struct {
	Kind  string  `json:"kind"`
	Stage string  `json:"stage"`
	Dur   int64   `json:"dur"`
	Value float64 `json:"value,omitempty"`
}

// TraceTree is the assembled, analysable form of one trace: its spans
// (sorted by start time, then span ID), wall duration, orphan count
// (spans whose declared parent is absent from the trace), whether any
// span recorded a replay stage, and the critical path — the root-to-leaf
// chain of spans that finished last, flattened to its attributed stages.
type TraceTree struct {
	TraceID      uint64         `json:"trace_id"`
	Spans        []SpanSnapshot `json:"spans"`
	Duration     int64          `json:"duration"`
	Orphans      int            `json:"orphans,omitempty"`
	Replayed     bool           `json:"replayed,omitempty"`
	CriticalPath []TraceStep    `json:"critical_path,omitempty"`
	CriticalDur  int64          `json:"critical_dur,omitempty"`
}

// traceStoreMetrics is the store's registered instrument set.
type traceStoreMetrics struct {
	ingested *Counter
	retained *Gauge
	evicted  *Counter
	sampled  *Counter
}

// TraceStore assembles finished spans from any number of tracers —
// typically one per process role, all sinking here — into trace trees
// keyed by the wire-propagated trace ID, with tail-based retention:
// traces that replayed or erred are always kept; ordinary
// traces are head-sampled and evicted first under capacity pressure.
//
// All methods are safe for concurrent use and nil-safe, so a disabled
// store (nil) costs one branch.
type TraceStore struct {
	mu      sync.Mutex
	cap     int
	every   int
	traces  map[uint64]*traceEntry
	order   []uint64 // insertion order, oldest first
	seen    uint64
	m       traceStoreMetrics
	journal *Journal
}

// NewTraceStore builds a store with the given policy and registers its
// metrics on cfg.Obs when present.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTraceStoreCapacity
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultTraceSampleEvery
	}
	s := &TraceStore{
		cap:     cfg.Capacity,
		every:   cfg.SampleEvery,
		traces:  make(map[uint64]*traceEntry),
		journal: cfg.Journal,
	}
	if cfg.Obs != nil {
		s.m.ingested = cfg.Obs.Counter("trace_spans_ingested_total")
		s.m.retained = cfg.Obs.Gauge("trace_traces_retained_count")
		s.m.evicted = cfg.Obs.Counter("trace_traces_evicted_total")
		s.m.sampled = cfg.Obs.Counter("trace_traces_sampled_total")
	}
	return s
}

// Ingest adds one finished span to its trace, creating the trace on
// first sight and evicting under the tail-retention policy when the
// store is over capacity. Wire it to a tracer with SetSink:
//
//	tracer.SetSink(store.Ingest)
func (s *TraceStore) Ingest(sn SpanSnapshot) {
	if s == nil || sn.TraceID == 0 {
		return
	}
	s.mu.Lock()
	s.m.ingested.Inc()
	e, ok := s.traces[sn.TraceID]
	if !ok {
		e = &traceEntry{id: sn.TraceID}
		s.traces[sn.TraceID] = e
		s.order = append(s.order, sn.TraceID)
		s.seen++
		if s.every == 1 || s.seen%uint64(s.every) == 1 {
			e.keep = true
			s.m.sampled.Inc()
			if s.journal != nil {
				s.journal.Record("trace_entry_sample", int64(len(s.order)))
			}
		}
	}
	e.spans = append(e.spans, sn)
	if !e.keep && keeper(&sn) {
		e.keep = true
	}
	for len(s.order) > s.cap {
		s.evictLocked()
	}
	s.m.retained.Set(int64(len(s.order)))
	s.mu.Unlock()
}

// keeper reports whether the newly ingested span promotes its trace to
// keeper: replayed or WAL-recovered, or error-ish (dropped stages, a busy
// reject or a spool drop).
func keeper(sn *SpanSnapshot) bool {
	if sn.DroppedStages > 0 {
		return true
	}
	for i := range sn.Stages {
		switch sn.Stages[i].Name {
		case "replay", "wal_replay", "busy_reject", "spool_drop", "skip", "deadline":
			return true
		}
	}
	return false
}

// evictLocked removes the oldest evictable trace: the oldest non-keeper,
// or — when every retained trace is a keeper — the oldest keeper.
func (s *TraceStore) evictLocked() {
	victim := 0
	for i, id := range s.order {
		if !s.traces[id].keep {
			victim = i
			break
		}
	}
	id := s.order[victim]
	s.order = append(s.order[:victim], s.order[victim+1:]...)
	delete(s.traces, id)
	s.m.evicted.Inc()
	if s.journal != nil {
		s.journal.Record("trace_entry_evict", int64(len(s.order)))
	}
}

// Len reports the number of retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Trace assembles and returns the tree for one trace ID.
func (s *TraceStore) Trace(id uint64) (TraceTree, bool) {
	if s == nil {
		return TraceTree{}, false
	}
	s.mu.Lock()
	e, ok := s.traces[id]
	var spans []SpanSnapshot
	if ok {
		spans = append(spans, e.spans...)
	}
	s.mu.Unlock()
	if !ok {
		return TraceTree{}, false
	}
	return buildTree(id, spans), true
}

// Slowest returns the n longest retained traces, longest first (trace ID
// breaks ties deterministically).
func (s *TraceStore) Slowest(n int) []TraceTree {
	trees := s.Trees()
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Duration != trees[j].Duration {
			return trees[i].Duration > trees[j].Duration
		}
		return trees[i].TraceID < trees[j].TraceID
	})
	if n > 0 && len(trees) > n {
		trees = trees[:n]
	}
	return trees
}

// Trees assembles every retained trace in insertion order.
func (s *TraceStore) Trees() []TraceTree {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ids := append([]uint64(nil), s.order...)
	byID := make(map[uint64][]SpanSnapshot, len(ids))
	for _, id := range ids {
		byID[id] = append([]SpanSnapshot(nil), s.traces[id].spans...)
	}
	s.mu.Unlock()
	trees := make([]TraceTree, 0, len(ids))
	for _, id := range ids {
		trees = append(trees, buildTree(id, byID[id]))
	}
	return trees
}

// buildTree sorts, diagnoses and attributes one trace's spans.
func buildTree(id uint64, spans []SpanSnapshot) TraceTree {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	t := TraceTree{TraceID: id, Spans: spans}
	known := make(map[uint64]bool, len(spans))
	for i := range spans {
		known[spans[i].SpanID] = true
	}
	var minStart, maxEnd int64
	for i := range spans {
		sn := &spans[i]
		if i == 0 || sn.Start < minStart {
			minStart = sn.Start
		}
		if i == 0 || sn.End > maxEnd {
			maxEnd = sn.End
		}
		if sn.Parent != 0 && !known[sn.Parent] {
			t.Orphans++
		}
		for j := range sn.Stages {
			if n := sn.Stages[j].Name; n == "replay" || n == "wal_replay" {
				t.Replayed = true
			}
		}
	}
	t.Duration = maxEnd - minStart
	t.CriticalPath, t.CriticalDur = criticalPath(spans, known)
	return t
}

// criticalPath walks from the earliest root down the chain of children
// that finished last and flattens that chain's stages — the per-stage
// attribution of where the trace's latency went.
func criticalPath(spans []SpanSnapshot, known map[uint64]bool) ([]TraceStep, int64) {
	if len(spans) == 0 {
		return nil, 0
	}
	// Roots: no parent, or a parent this trace never saw (orphans still
	// deserve attribution). Spans are already start-sorted, so the first
	// root is the earliest.
	root := -1
	for i := range spans {
		if spans[i].Parent == 0 || !known[spans[i].Parent] {
			root = i
			break
		}
	}
	if root == -1 {
		root = 0
	}
	var steps []TraceStep
	var total int64
	cur := root
	visited := make(map[uint64]bool, len(spans))
	for {
		sn := &spans[cur]
		visited[sn.SpanID] = true
		for i := range sn.Stages {
			st := &sn.Stages[i]
			steps = append(steps, TraceStep{Kind: sn.Kind, Stage: st.Name, Dur: st.Dur, Value: st.Value})
			total += st.Dur
		}
		// Descend to the child that finished last (span ID breaks ties).
		next := -1
		for i := range spans {
			if spans[i].Parent != sn.SpanID || visited[spans[i].SpanID] {
				continue
			}
			if next == -1 || spans[i].End > spans[next].End ||
				(spans[i].End == spans[next].End && spans[i].SpanID < spans[next].SpanID) {
				next = i
			}
		}
		if next == -1 {
			return steps, total
		}
		cur = next
	}
}
