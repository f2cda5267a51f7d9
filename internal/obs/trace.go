package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// MaxStages bounds the stages one span can hold. Spans live in a
// sync.Pool and carry a fixed-size stage array, so recording a stage never
// allocates; stages past the cap are counted in DroppedStages instead of
// grown.
const MaxStages = 24

// DefaultTraceRing is the span ring size when Tracer is built with
// ringSize <= 0.
const DefaultTraceRing = 256

// Stage is one timed step of a span. Dur is measured on the clock of
// whichever subsystem recorded it (the tracer clock for timed stages, the
// farm's sample clock for queue waits — see DESIGN.md §10 for the per-stage
// contract); Value carries a stage-specific magnitude such as residual
// energy after a SIC round or bytes put on the wire.
type Stage struct {
	Name  string  `json:"name"`
	Dur   int64   `json:"dur"`
	Value float64 `json:"value,omitempty"`
}

// Span accumulates the stages of one traced segment. Obtain with
// Tracer.Start, record with Stage, finish with End. A span is owned by one
// goroutine at a time; the internal mutex makes the handoffs (gateway →
// farm worker → reply sequencer) safe even when they race with an HTTP
// snapshot of an ancestor.
//
// All methods are nil-safe: instrumented code calls them unconditionally
// and a disabled tracer (nil) costs one predictable branch.
type Span struct {
	mu      sync.Mutex
	tr      *Tracer
	id      uint64
	span    uint64
	parent  uint64
	kind    string
	start   int64
	end     int64
	n       int
	dropped int
	stages  [MaxStages]Stage
}

// TraceID returns the span's trace ID (0 for a nil span).
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// SpanID returns the span's own ID (0 for a nil span). Other processes
// reference this span as their parent — the gateway ships it in the
// segment's trace context so the cloud-side span stitches under it.
func (sp *Span) SpanID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.span
}

// Parent returns the span ID of this span's parent (0 for a root or nil
// span).
func (sp *Span) Parent() uint64 {
	if sp == nil {
		return 0
	}
	return sp.parent
}

// Now reads the owning tracer's clock (0 for a nil span), so deep callees
// can time stages without threading the tracer through every signature.
func (sp *Span) Now() int64 {
	if sp == nil || sp.tr == nil {
		return 0
	}
	return sp.tr.Now()
}

// Stage appends one timed stage. Past MaxStages the stage is dropped and
// counted, never grown — recording stays allocation-free.
func (sp *Span) Stage(name string, dur int64, value float64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.n < MaxStages {
		sp.stages[sp.n] = Stage{Name: name, Dur: dur, Value: value}
		sp.n++
	} else {
		sp.dropped++
	}
	sp.mu.Unlock()
}

// End stamps the span's end time, publishes it to the tracer's ring, and
// recycles it. The span must not be used after End.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	tr := sp.tr
	if tr == nil { // already ended
		sp.mu.Unlock()
		return
	}
	sp.end = tr.Now()
	rec := spanRec{
		id:      sp.id,
		span:    sp.span,
		parent:  sp.parent,
		kind:    sp.kind,
		start:   sp.start,
		end:     sp.end,
		n:       sp.n,
		dropped: sp.dropped,
		stages:  sp.stages,
	}
	sp.tr = nil
	sp.mu.Unlock()
	tr.record(rec)
	tr.pool.Put(sp)
}

// spanRec is a finished span as stored in the tracer ring: plain values,
// no mutex, copyable.
type spanRec struct {
	id      uint64
	span    uint64
	parent  uint64
	kind    string
	start   int64
	end     int64
	n       int
	dropped int
	stages  [MaxStages]Stage
}

// SpanSnapshot is the JSON form of a finished span.
type SpanSnapshot struct {
	TraceID       uint64  `json:"trace_id"`
	SpanID        uint64  `json:"span_id"`
	Parent        uint64  `json:"parent,omitempty"`
	Kind          string  `json:"kind"`
	Start         int64   `json:"start"`
	End           int64   `json:"end"`
	DroppedStages int     `json:"dropped_stages,omitempty"`
	Stages        []Stage `json:"stages"`
}

// TraceSnapshot groups the spans that share a trace ID — in the
// single-process example the gateway-side and cloud-side spans of one
// segment merge into one trace here.
type TraceSnapshot struct {
	TraceID uint64         `json:"trace_id"`
	Spans   []SpanSnapshot `json:"spans"`
}

// Tracer hands out spans and keeps the most recent finished ones in a
// ring for /trace/recent. The zero clock is a deterministic step counter
// (every Now call advances it by one), which keeps library code replayable
// under the nondeterminism rule; commands inject the wall clock with
// SetClock before starting traffic.
type Tracer struct {
	clock   func() int64
	seq     atomic.Int64
	site    uint64
	spanSeq atomic.Uint64
	sink    func(SpanSnapshot)
	pool    sync.Pool

	mu    sync.Mutex
	ring  []spanRec
	next  int
	total uint64
}

// NewTracer builds a tracer whose ring keeps the last ringSize finished
// spans (<= 0 means DefaultTraceRing).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	return &Tracer{ring: make([]spanRec, ringSize)}
}

// SetClock replaces the deterministic step clock, typically with
// func() int64 { return time.Now().UnixNano() }. Call before the tracer is
// shared across goroutines.
func (t *Tracer) SetClock(clock func() int64) {
	if t != nil {
		t.clock = clock
	}
}

// SetSite names the process/role this tracer runs in ("gateway",
// "cloud", ...). The site hash salts span IDs so spans minted by
// different tracers feeding one TraceStore cannot collide. Call before
// the tracer is shared across goroutines.
func (t *Tracer) SetSite(name string) {
	if t != nil {
		t.site = SiteID(name)
	}
}

// SetSink registers a callback invoked with every finished span, in
// addition to the ring. A TraceStore hangs off this hook to assemble
// cross-process trace trees. Call before the tracer is shared across
// goroutines; the callback must be safe for concurrent use.
func (t *Tracer) SetSink(sink func(SpanSnapshot)) {
	if t != nil {
		t.sink = sink
	}
}

// Now reads the tracer clock (0 for a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	if t.clock != nil {
		return t.clock()
	}
	return t.seq.Add(1)
}

// Start opens a root span of the given kind for trace id. Returns nil (a
// valid, inert span) when the tracer is nil.
func (t *Tracer) Start(kind string, id uint64) *Span {
	return t.StartChild(kind, id, 0)
}

// StartChild opens a span of the given kind on trace id under the given
// parent span ID (0 = root). The cloud uses it to attach its per-segment
// span under the gateway span whose ID arrived in the segment's wire
// trace context. Returns nil when the tracer is nil.
func (t *Tracer) StartChild(kind string, id, parent uint64) *Span {
	if t == nil {
		return nil
	}
	sp, _ := t.pool.Get().(*Span)
	if sp == nil {
		sp = &Span{}
	}
	sp.mu.Lock()
	sp.tr = t
	sp.id = id
	sp.span = t.nextSpanID()
	sp.parent = parent
	sp.kind = kind
	sp.start = t.Now()
	sp.end = 0
	sp.n = 0
	sp.dropped = 0
	sp.mu.Unlock()
	return sp
}

// nextSpanID mints a process-unique, non-zero span ID: splitmix64 over
// the site hash and a per-tracer sequence.
func (t *Tracer) nextSpanID() uint64 {
	z := (t.site ^ t.spanSeq.Add(1)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// record appends a finished span to the ring and feeds the sink.
func (t *Tracer) record(rec spanRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(rec.snapshot())
	}
}

// snapshot converts a ring record to its JSON form.
func (rec *spanRec) snapshot() SpanSnapshot {
	return SpanSnapshot{
		TraceID:       rec.id,
		SpanID:        rec.span,
		Parent:        rec.parent,
		Kind:          rec.kind,
		Start:         rec.start,
		End:           rec.end,
		DroppedStages: rec.dropped,
		Stages:        append([]Stage(nil), rec.stages[:rec.n]...),
	}
}

// Recent returns the ring's finished spans, oldest first, grouped into
// traces by trace ID (groups ordered by each trace's oldest span).
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := int(t.total)
	if t.total > uint64(len(t.ring)) {
		n = len(t.ring)
	}
	recs := make([]spanRec, 0, n)
	for i := 0; i < n; i++ {
		// Oldest record first: when the ring has wrapped, t.next points at
		// the oldest slot.
		idx := i
		if t.total > uint64(len(t.ring)) {
			idx = (t.next + i) % len(t.ring)
		}
		recs = append(recs, t.ring[idx])
	}
	t.mu.Unlock()

	var out []TraceSnapshot
	byID := make(map[uint64]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		snap := rec.snapshot()
		gi, ok := byID[rec.id]
		if !ok {
			gi = len(out)
			out = append(out, TraceSnapshot{TraceID: rec.id})
			byID[rec.id] = gi
		}
		out[gi].Spans = append(out[gi].Spans, snap)
	}
	return out
}

// SiteID hashes a site/process name (FNV-1a) for span-ID salting and
// trace minting. A gateway's ID hash keys MintTraceID so the trace
// identity a segment carries is stable across process restarts.
func SiteID(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// MintTraceID derives the wire-propagated trace ID for a segment:
// splitmix64 over the minting site (gateway ID hash) and the segment's
// absolute start sample. Both inputs survive crash/restart — a
// WAL-recovered segment re-shipped under a fresh epoch keeps the same
// trace identity it was minted with. The cloud mints with the same function
// for a segment that arrives without wire trace context, so both sides of
// an unsalted gateway's segment still land on one trace.
func MintTraceID(site uint64, start int64) uint64 {
	z := (site ^ uint64(start)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// ctxKey keys the span carried through a context.
type ctxKey struct{}

// ContextWithSpan attaches sp to ctx; a nil span returns ctx unchanged, so
// disabled tracing allocates nothing.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
