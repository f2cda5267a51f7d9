package obs

import (
	"encoding/json"
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
	tr := NewTracer()
	store := NewTraceStore(reg)
	tr.SetSink(store.Ingest)
	sp := tr.Start("gateway-segment", MintTraceID(0, 1))
	sp.Stage("detect", 3, 0)
	sp.End()

	s := &Server{Registry: reg, Traces: store}
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

	var traces []TraceTree
	getJSON(t, base+"/trace/slowest", http.StatusOK, &traces)
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
	s := &Server{} // no registry, no trace store
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
	var traces []TraceTree
	getJSON(t, base+"/trace/slowest", http.StatusOK, &traces)
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

// TestServerTraceSlowestAll: /trace/slowest?n=0 serves every retained tree,
// not the default ten — the continuity gate judges the whole store, so an
// orphan in the eleventh-slowest trace must reach it. Without n the route
// still serves ten, and a negative n is refused.
func TestServerTraceSlowestAll(t *testing.T) {
	t.Parallel()
	const traces = 14
	store := NewTraceStore(nil)
	for i := 0; i < traces; i++ {
		store.Ingest(SpanSnapshot{TraceID: MintTraceID(0, int64(i)), SpanID: uint64(i + 1), Kind: "gateway-segment", Start: 0, End: int64(100 + i)})
	}
	s := &Server{Traces: store}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	base := fmt.Sprintf("http://%s", s.Addr())

	var all []TraceTree
	getJSON(t, base+"/trace/slowest?n=0", http.StatusOK, &all)
	if len(all) != traces {
		t.Fatalf("/trace/slowest?n=0 served %d trees, want all %d", len(all), traces)
	}
	var dflt []TraceTree
	getJSON(t, base+"/trace/slowest", http.StatusOK, &dflt)
	if len(dflt) != 10 {
		t.Fatalf("/trace/slowest served %d trees, want the default 10", len(dflt))
	}
	resp, err := http.Get(base + "/trace/slowest?n=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=-1 answered %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestServerFleetEndpoints drives what a sharded plane serves over a real
// listener: /metrics carries a shard's prefixed series beside the plane's
// own, /events/recent the coalesced shard lifecycle, /healthz and /readyz
// the liveness verdict, and there is no second metrics route.
func TestServerFleetEndpoints(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("cloud_segments_decoded_total").Add(7)
	reg.Prefixed("cloud_shard1_").Counter("farm_jobs_admitted_total").Add(5)
	j := NewJournal(8)
	j.Record("fleet_shard_attach", 0)
	j.Record("fleet_shard_attach", 1)
	h := NewHealth()
	healthy := true
	h.Register("fleet_plane_liveness", func() CheckResult {
		if healthy {
			return Healthy("")
		}
		return Unhealthy("down")
	})

	srv := &Server{Registry: reg, Journal: j, Health: h}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	var snap Snapshot
	getJSON(t, base+"/metrics", http.StatusOK, &snap)
	if snap.Counters["cloud_segments_decoded_total"] != 7 || snap.Counters["cloud_shard1_farm_jobs_admitted_total"] != 5 {
		t.Errorf("/metrics counters = %v, want the plane's 7 decodes and shard 1's 5 admits", snap.Counters)
	}
	resp, err := http.Get(base + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/fleet/metrics status = %d, want 404 (one metrics view per process)", resp.StatusCode)
	}

	var events []Event
	getJSON(t, base+"/events/recent", http.StatusOK, &events)
	if len(events) != 1 || events[0].Name != "fleet_shard_attach" || events[0].Count != 2 {
		t.Errorf("/events/recent = %+v, want one coalesced fleet_shard_attach", events)
	}

	var hs HealthSnapshot
	getJSON(t, base+"/healthz", http.StatusOK, &hs)
	if !hs.Healthy {
		t.Errorf("/healthz = %+v, want healthy", hs)
	}
	healthy = false
	getJSON(t, base+"/healthz", http.StatusServiceUnavailable, &hs)
	if hs.Healthy || len(hs.Checks) != 1 {
		t.Errorf("/healthz after flip = %+v, want unhealthy with the check listed", hs)
	}
	getJSON(t, base+"/readyz", http.StatusServiceUnavailable, &hs)
	if hs.Healthy {
		t.Errorf("/readyz = %+v, want unready while a liveness check fails", hs)
	}
}

// getJSON fetches url, asserts the status code, and decodes the body.
func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}
