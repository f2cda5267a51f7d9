package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
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
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
	if ctx := ContextWithSpan(context.Background(), nil); SpanFromContext(ctx) != nil {
		t.Fatal("nil span attached to context")
	}
}

func TestSpanLifecycle(t *testing.T) {
	t.Parallel()
	tr := NewTracer(8)
	id := MintTraceID(0, 42)
	sp := tr.Start("gateway-segment", id)
	if sp.TraceID() != id {
		t.Fatalf("trace id = %d, want %d", sp.TraceID(), id)
	}
	sp.Stage("detect", 5, 131072)
	sp.Stage("encode_ship", 3, 2048)
	sp.End()
	sp.End() // double End must be harmless

	traces := tr.Recent()
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
	tr := NewTracer(8)
	id := MintTraceID(0, 7)
	gw := tr.Start("gateway-segment", id)
	gw.Stage("detect", 1, 0)
	gw.End()
	cl := tr.Start("cloud-segment", id)
	cl.Stage("decode", 2, 0)
	cl.End()
	other := tr.Start("cloud-segment", MintTraceID(0, 8))
	other.End()

	traces := tr.Recent()
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
	tr := NewTracer(4)
	sp := tr.Start("cloud-segment", 1)
	for i := 0; i < MaxStages+10; i++ {
		sp.Stage("sic_round", int64(i), 0)
	}
	sp.End()
	span := tr.Recent()[0].Spans[0]
	if len(span.Stages) != MaxStages {
		t.Fatalf("stages = %d, want cap %d", len(span.Stages), MaxStages)
	}
	if span.DroppedStages != 10 {
		t.Fatalf("dropped = %d, want 10", span.DroppedStages)
	}
}

func TestTracerRingEviction(t *testing.T) {
	t.Parallel()
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.Start("gateway-segment", uint64(i+1))
		sp.End()
	}
	traces := tr.Recent()
	if len(traces) != 4 {
		t.Fatalf("got %d traces, want ring size 4", len(traces))
	}
	// Oldest surviving span first: IDs 7, 8, 9, 10.
	for i, want := range []uint64{7, 8, 9, 10} {
		if traces[i].TraceID != want {
			t.Fatalf("trace %d id = %d, want %d", i, traces[i].TraceID, want)
		}
	}
}

func TestContextCarriesSpan(t *testing.T) {
	t.Parallel()
	tr := NewTracer(4)
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

// TestTracerConcurrent exercises concurrent span lifecycles against Recent
// readers; meaningful under -race.
func TestTracerConcurrent(t *testing.T) {
	t.Parallel()
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
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
				tr.Recent()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := len(tr.Recent()); got == 0 || got > 32 {
		t.Fatalf("recent traces = %d", got)
	}
}

// TestSpanDroppedStagesConcurrentExact hammers one span's Stage method from
// many goroutines past the cap and checks the accounting is exact: every
// recorded stage either lands in the fixed array or increments
// DroppedStages — none vanish, none double-count. Meaningful under -race.
func TestSpanDroppedStagesConcurrentExact(t *testing.T) {
	t.Parallel()
	const workers, perWorker = 8, 50
	tr := NewTracer(4)
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
	snap := tr.Recent()[0].Spans[0]
	if len(snap.Stages) != MaxStages {
		t.Fatalf("kept stages = %d, want cap %d", len(snap.Stages), MaxStages)
	}
	if want := workers*perWorker - MaxStages; snap.DroppedStages != want {
		t.Fatalf("dropped = %d, want %d", snap.DroppedStages, want)
	}
}

// TestTracerRingOverflowUnderHTTPSnapshots overflows a small span ring from
// concurrent writers while an HTTP client snapshots /trace/recent and
// /trace/slowest the whole time. Checks that no finished span is lost by
// the sink even when the ring evicts, and that every snapshot the server
// hands out has internally consistent stage/drop accounting. Meaningful
// under -race: this is the End vs HTTP-snapshot race the soak tools rely
// on.
func TestTracerRingOverflowUnderHTTPSnapshots(t *testing.T) {
	t.Parallel()
	const workers, perWorker, ring = 4, 100, 8
	tr := NewTracer(ring)
	store := NewTraceStore(TraceStoreConfig{Capacity: workers * perWorker, SampleEvery: 1})
	var sunk atomic.Int64
	tr.SetSink(func(sn SpanSnapshot) {
		sunk.Add(1)
		store.Ingest(sn)
	})

	s := &Server{Tracer: tr, Traces: store}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	base := fmt.Sprintf("http://%s", s.Addr())

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
			for _, url := range []string{base + "/trace/recent", base + "/trace/slowest?n=4"} {
				resp, err := http.Get(url)
				if err != nil {
					continue // server shutting down mid-request is fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
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

	if got := sunk.Load(); got != workers*perWorker {
		t.Fatalf("sink saw %d spans, want %d (ring eviction must not drop sink delivery)", got, workers*perWorker)
	}
	traces := tr.Recent()
	if len(traces) == 0 || len(traces) > ring {
		t.Fatalf("recent traces = %d, want 1..%d", len(traces), ring)
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
