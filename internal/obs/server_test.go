package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestServerEndpoints starts a server on a free port, exercises every
// endpoint, and shuts it down. The goroutine accounting at the end is the
// leak check the goleak lint rule's "visible join" demands at runtime:
// after Close returns, the serve goroutine must be gone.
func TestServerEndpoints(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := NewRegistry()
	reg.Counter("gateway_segments_shipped_total").Add(7)
	reg.Gauge("farm_jobs_queued_count").Set(2)
	reg.Histogram("farm_queue_wait_samples", 16).Observe(500)
	tr := NewTracer(8)
	sp := tr.Start("gateway-segment", MintTraceID(0, 1))
	sp.Stage("detect", 3, 0)
	sp.End()

	s := &Server{Registry: reg, Tracer: tr}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := fmt.Sprintf("http://%s", s.Addr())

	var snap Snapshot
	getJSON(t, base+"/metrics", http.StatusOK, &snap)
	if snap.Counters["gateway_segments_shipped_total"] != 7 {
		t.Fatalf("metrics counters = %v", snap.Counters)
	}
	if snap.Gauges["farm_jobs_queued_count"] != 2 {
		t.Fatalf("metrics gauges = %v", snap.Gauges)
	}
	if hs := snap.Histograms["farm_queue_wait_samples"]; hs.Count != 1 || hs.P50 != 500 {
		t.Fatalf("metrics histograms = %v", snap.Histograms)
	}

	var traces []TraceSnapshot
	getJSON(t, base+"/trace/recent", http.StatusOK, &traces)
	if len(traces) != 1 || len(traces[0].Spans) != 1 || traces[0].Spans[0].Kind != "gateway-segment" {
		t.Fatalf("traces = %+v", traces)
	}

	// pprof is wired on the server's own mux (cmdline is the cheap one).
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("pprof body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The serve goroutine must have joined; allow the runtime a moment to
	// retire connection handlers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked across server lifecycle: %d -> %d", before, now)
	}
}

func TestServerEmptyBackends(t *testing.T) {
	t.Parallel()
	s := &Server{} // no registry, no tracer
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	base := fmt.Sprintf("http://%s", s.Addr())
	var snap Snapshot
	getJSON(t, base+"/metrics", http.StatusOK, &snap)
	var traces []TraceSnapshot
	getJSON(t, base+"/trace/recent", http.StatusOK, &traces)
	if len(traces) != 0 {
		t.Fatalf("traces = %v", traces)
	}
}

func TestServerDoubleStartAndIdleClose(t *testing.T) {
	t.Parallel()
	var idle Server
	if err := idle.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	s := &Server{}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start did not error")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
