package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	if tr.Now() != 0 {
		t.Fatal("nil tracer clock")
	}
	sp := tr.Start("gateway-segment", 1)
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	sp.Stage("detect", 1, 0)
	sp.End()
	if sp.Now() != 0 || sp.TraceID() != 0 {
		t.Fatal("nil span not inert")
	}
	var store *TraceStore
	store.Ingest(SpanSnapshot{TraceID: 1})
	if store.Len() != 0 || store.Trees() != nil {
		t.Fatal("nil store not inert")
	}
	if ctx := ContextWithSpan(context.Background(), nil); SpanFromContext(ctx) != nil {
		t.Fatal("nil span attached to context")
	}
}

// sinkedTracer builds a tracer that sinks every finished span into a
// fresh store, the way every command wires its tracer.
func sinkedTracer() (*Tracer, *TraceStore) {
	tr := NewTracer()
	store := NewTraceStore(nil)
	tr.SetSink(store.Ingest)
	return tr, store
}

func TestSpanLifecycle(t *testing.T) {
	t.Parallel()
	tr, store := sinkedTracer()
	id := MintTraceID(0, 42)
	sp := tr.Start("gateway-segment", id)
	if sp.TraceID() != id {
		t.Fatalf("trace id = %d, want %d", sp.TraceID(), id)
	}
	sp.Stage("detect", 5, 131072)
	sp.Stage("encode_ship", 3, 2048)
	sp.End()
	sp.End() // double End must be harmless

	traces := store.Trees()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tc := traces[0]
	if tc.TraceID != id || len(tc.Spans) != 1 {
		t.Fatalf("trace = %+v", tc)
	}
	span := tc.Spans[0]
	if span.Kind != "gateway-segment" || len(span.Stages) != 2 {
		t.Fatalf("span = %+v", span)
	}
	if span.Stages[0].Name != "detect" || span.Stages[0].Dur != 5 {
		t.Fatalf("stage 0 = %+v", span.Stages[0])
	}
	if span.End <= span.Start {
		t.Fatalf("default step clock not monotonic: start=%d end=%d", span.Start, span.End)
	}
}

func TestSpanGroupingByTraceID(t *testing.T) {
	t.Parallel()
	tr, store := sinkedTracer()
	id := MintTraceID(0, 7)
	gw := tr.Start("gateway-segment", id)
	gw.Stage("detect", 1, 0)
	gw.End()
	cl := tr.Start("cloud-segment", id)
	cl.Stage("decode", 2, 0)
	cl.End()
	other := tr.Start("cloud-segment", MintTraceID(0, 8))
	other.End()

	traces := store.Trees()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[0].TraceID != id || len(traces[0].Spans) != 2 {
		t.Fatalf("merged trace = %+v", traces[0])
	}
	if traces[0].Spans[0].Kind != "gateway-segment" || traces[0].Spans[1].Kind != "cloud-segment" {
		t.Fatalf("span order = %+v", traces[0].Spans)
	}
}

func TestSpanStageCapDropsNotGrows(t *testing.T) {
	t.Parallel()
	tr, store := sinkedTracer()
	sp := tr.Start("cloud-segment", 1)
	for i := 0; i < MaxStages+10; i++ {
		sp.Stage("sic_round", int64(i), 0)
	}
	sp.End()
	span := store.Trees()[0].Spans[0]
	if len(span.Stages) != MaxStages {
		t.Fatalf("stages = %d, want cap %d", len(span.Stages), MaxStages)
	}
	if span.DroppedStages != 10 {
		t.Fatalf("dropped = %d, want 10", span.DroppedStages)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	t.Parallel()
	tr := NewTracer()
	sp := tr.Start("cloud-segment", 3)
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatal("span lost in context")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatal("span from empty context")
	}
	sp.End()
}

func TestMintTraceIDStableAndDistinct(t *testing.T) {
	t.Parallel()
	site := SiteID("gw-a")
	if MintTraceID(site, 1000) != MintTraceID(site, 1000) {
		t.Fatal("trace id not stable")
	}
	if MintTraceID(site, 1000) == MintTraceID(SiteID("gw-b"), 1000) {
		t.Fatal("two gateways minted the same trace id for the same start")
	}
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		id := MintTraceID(site, i)
		if id == 0 || seen[id] {
			t.Fatalf("zero or colliding id at start=%d", i)
		}
		seen[id] = true
	}
}

// TestTracerConcurrent exercises concurrent span lifecycles sinking into
// a store while a reader assembles its trees; meaningful under -race. The
// spans outnumber the store's capacity, so eviction runs concurrently too
// and its accounting must stay exact.
func TestTracerConcurrent(t *testing.T) {
	t.Parallel()
	const workers, perWorker = 8, 200
	reg := NewRegistry()
	tr := NewTracer()
	store := NewTraceStore(reg)
	tr.SetSink(store.Ingest)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("cloud-segment", MintTraceID(0, int64(w*1000+i)))
				sp.Stage("decode", 1, 0)
				sp.End()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				store.Trees()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := store.Len(); got != TraceStoreCapacity {
		t.Fatalf("retained traces = %d, want capacity %d", got, TraceStoreCapacity)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trace_spans_ingested_total"]; got != workers*perWorker {
		t.Fatalf("ingested = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Counters["trace_traces_evicted_total"]; got != workers*perWorker-TraceStoreCapacity {
		t.Fatalf("evicted = %d, want %d", got, workers*perWorker-TraceStoreCapacity)
	}
}

// TestSinkedSpanAllocs pins the steady-state cost of one traced segment:
// Start, three stages and End on a sinked tracer allocate at most the one
// stage slice the sink's snapshot owns — the span itself is pooled.
func TestSinkedSpanAllocs(t *testing.T) {
	tr := NewTracer()
	var stages int
	tr.SetSink(func(sn SpanSnapshot) { stages += len(sn.Stages) })
	run := func() {
		sp := tr.Start("cloud-segment", 1)
		sp.Stage("detect", 1, 0)
		sp.Stage("decode", 2, 0)
		sp.Stage("reply", 3, 0)
		sp.End()
	}
	run() // fill the span pool
	if a := testing.AllocsPerRun(100, run); a > 1 {
		t.Fatalf("Start+3×Stage+End allocates %.0f per span, want <= 1", a)
	}
	if stages != 3*102 {
		t.Fatalf("sink saw %d stages, want %d", stages, 3*102)
	}
}

// TestSpanDroppedStagesConcurrentExact hammers one span's Stage method from
// many goroutines past the cap and checks the accounting is exact: every
// recorded stage either lands in the fixed array or increments
// DroppedStages — none vanish, none double-count. Meaningful under -race.
func TestSpanDroppedStagesConcurrentExact(t *testing.T) {
	t.Parallel()
	const workers, perWorker = 8, 50
	tr, store := sinkedTracer()
	sp := tr.Start("cloud-segment", 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp.Stage("sic_round", int64(w*perWorker+i), 0)
			}
		}(w)
	}
	wg.Wait()
	sp.End()
	snap := store.Trees()[0].Spans[0]
	if len(snap.Stages) != MaxStages {
		t.Fatalf("kept stages = %d, want cap %d", len(snap.Stages), MaxStages)
	}
	if want := workers*perWorker - MaxStages; snap.DroppedStages != want {
		t.Fatalf("dropped = %d, want %d", snap.DroppedStages, want)
	}
}

// TestTraceStoreUnderHTTPSnapshots ends spans from concurrent writers
// while an HTTP client polls every retained tree (/trace/slowest?n=0) the
// whole time. Checks that the sink sees every finished span exactly once
// and that every snapshot the server hands out has internally consistent
// stage/drop accounting. Meaningful under -race: this is the End vs
// HTTP-snapshot race the soak tools rely on.
func TestTraceStoreUnderHTTPSnapshots(t *testing.T) {
	t.Parallel()
	const workers, perWorker = 4, 100
	tr := NewTracer()
	store := NewTraceStore(nil)
	var mu sync.Mutex
	sunk := map[uint64]int{}
	tr.SetSink(func(sn SpanSnapshot) {
		mu.Lock()
		sunk[sn.SpanID]++
		mu.Unlock()
		store.Ingest(sn)
	})

	s := &Server{Traces: store}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	url := fmt.Sprintf("http://%s/trace/slowest?n=0", s.Addr())

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				continue // server shutting down mid-request is fine
			}
			var trees []TraceTree
			if err := json.NewDecoder(resp.Body).Decode(&trees); err == nil {
				for _, trace := range trees {
					for _, sp := range trace.Spans {
						if sp.DroppedStages > 0 && len(sp.Stages) != MaxStages {
							t.Errorf("served span dropped %d stages while only %d recorded", sp.DroppedStages, len(sp.Stages))
						}
					}
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("gateway-segment", MintTraceID(0, int64(w*perWorker+i)))
				// Overflow the stage cap on every third span so snapshots
				// taken mid-run carry DroppedStages too.
				n := 3
				if i%3 == 0 {
					n = MaxStages + 5
				}
				for s := 0; s < n; s++ {
					sp.Stage("detect", 1, 0)
				}
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if len(sunk) != workers*perWorker {
		t.Fatalf("sink saw %d distinct spans, want %d", len(sunk), workers*perWorker)
	}
	for id, n := range sunk {
		if n != 1 {
			t.Fatalf("sink saw span %x %d times, want once", id, n)
		}
	}
	for _, trace := range store.Trees() {
		for _, sp := range trace.Spans {
			if len(sp.Stages) > MaxStages {
				t.Fatalf("span holds %d stages, cap is %d", len(sp.Stages), MaxStages)
			}
			if sp.DroppedStages > 0 && len(sp.Stages) != MaxStages {
				t.Fatalf("span dropped %d stages while only %d recorded (cap %d)",
					sp.DroppedStages, len(sp.Stages), MaxStages)
			}
		}
	}
	if store.Len() != workers*perWorker {
		t.Fatalf("store retained %d traces, want %d", store.Len(), workers*perWorker)
	}
}
