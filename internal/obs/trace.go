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

// Stage is one timed step of a span. Dur is measured on the span's tracer
// clock, whatever the stage (see DESIGN.md §10 for the per-stage
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

// End stamps the span's end time, hands its snapshot to the tracer's
// sink, and recycles it. The span must not be used after End.
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
	sink := tr.sink
	var sn SpanSnapshot
	if sink != nil {
		sn = SpanSnapshot{
			TraceID:       sp.id,
			SpanID:        sp.span,
			Parent:        sp.parent,
			Kind:          sp.kind,
			Start:         sp.start,
			End:           sp.end,
			DroppedStages: sp.dropped,
			Stages:        append([]Stage(nil), sp.stages[:sp.n]...),
		}
	}
	sp.tr = nil
	sp.mu.Unlock()
	if sink != nil {
		sink(sn)
	}
	tr.pool.Put(sp)
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

// Tracer hands out spans and passes each finished one to its sink; it
// keeps none itself. The zero clock is a deterministic step counter
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
}

// NewTracer builds a tracer on the deterministic step clock with no sink.
func NewTracer() *Tracer { return &Tracer{} }

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

// SetSink registers the callback invoked with every finished span — the
// tracer's only output. Commands sink into a TraceStore, which assembles
// cross-process trace trees; a tracer without a sink times spans and
// discards them. Call before the tracer is shared across goroutines; the
// callback must be safe for concurrent use.
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
