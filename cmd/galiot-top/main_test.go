package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/galiot"
)

// startEndpoint serves a populated observability endpoint: one registry
// with a counter and a gauge, one health registry with a
// failing readiness check, and a journal with a coalesced burst.
func startEndpoint(t *testing.T) (base string, srv *galiot.ObsServer) {
	t.Helper()
	reg := galiot.NewObsRegistry()
	reg.Counter("cloud_segments_decoded_total").Add(42)
	reg.Gauge("farm_jobs_queued_count").Set(9)

	h := galiot.NewObsHealth()
	h.Register("cloud_farm_liveness", func() galiot.ObsCheckResult {
		return galiot.ObsCheckResult{Healthy: true, Detail: "2 workers"}
	})
	h.RegisterReadiness("cloud_farm_headroom", func() galiot.ObsCheckResult {
		return galiot.ObsCheckResult{Healthy: false, Detail: "queue saturated at 64/64"}
	})

	j := galiot.NewObsJournal(0)
	j.Record("gateway_session_establish", 4)
	j.Record("gateway_busy_reject", 17)
	j.Record("gateway_busy_reject", 18)

	srv = &galiot.ObsServer{Registry: reg, Journal: j, Health: h}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("obs server close: %v", err)
		}
	})
	return "http://" + srv.Addr().String(), srv
}

// TestFetchAndRender drives the scraper against a live endpoint and
// checks the rendered dashboard carries every section: the health
// verdicts (including the 503 /readyz body), counter and gauge values,
// and the coalesced event burst.
func TestFetchAndRender(t *testing.T) {
	base, _ := startEndpoint(t)
	client := &http.Client{Timeout: 5 * time.Second}
	v, err := fetch(client, base)
	if err != nil {
		t.Fatal(err)
	}

	if !v.Live.Healthy {
		t.Errorf("liveness degraded: %+v", v.Live)
	}
	if v.Ready.Healthy {
		t.Errorf("readiness healthy despite saturated farm: %+v", v.Ready)
	}
	if got := v.Metrics.Counters["cloud_segments_decoded_total"]; got != 42 {
		t.Errorf("decoded counter = %d, want 42", got)
	}
	if len(v.Events) != 2 {
		t.Fatalf("events = %+v, want 2 entries", v.Events)
	}
	if e := v.Events[1]; e.Name != "gateway_busy_reject" || e.Count != 2 || e.Value != 18 {
		t.Errorf("coalesced burst = %+v, want gateway_busy_reject x2 value 18", e)
	}

	out := render(v, 12, base)
	for _, want := range []string{
		"health: OK (1 checks)",
		"ready: DEGRADED (1/2 checks failing)",
		"FAIL cloud_farm_headroom",
		"queue saturated at 64/64",
		"cloud_segments_decoded_total",
		"farm_jobs_queued_count",
		"gateway_session_establish",
		"gateway_busy_reject",
		"x2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered view is missing %q:\n%s", want, out)
		}
	}
}

// TestRenderEventTail bounds the journal tail to the most recent entries.
func TestRenderEventTail(t *testing.T) {
	base, _ := startEndpoint(t)
	client := &http.Client{Timeout: 5 * time.Second}
	v, err := fetch(client, base)
	if err != nil {
		t.Fatal(err)
	}
	out := render(v, 1, base)
	if strings.Contains(out, "gateway_session_establish") {
		t.Errorf("tail of 1 still shows the oldest event:\n%s", out)
	}
	if !strings.Contains(out, "events (1 of 2):") {
		t.Errorf("tail header missing:\n%s", out)
	}
}

// TestFetchRejectsDeadEndpoint surfaces a connection error instead of
// rendering an empty view.
func TestFetchRejectsDeadEndpoint(t *testing.T) {
	client := &http.Client{Timeout: 500 * time.Millisecond}
	if _, err := fetch(client, "http://127.0.0.1:1"); err == nil {
		t.Fatal("fetch of a dead endpoint succeeded")
	}
}

// TestAssertGatewayEndpoint gates on a gateway's endpoint, which serves
// only its own registry at /metrics: the gateway_* counters render and the
// documented spool-drop gate passes.
func TestAssertGatewayEndpoint(t *testing.T) {
	reg := galiot.NewObsRegistry()
	reg.Counter("gateway_segments_shipped_total").Add(3)
	reg.Counter("gateway_spool_dropped_total")
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if err := json.NewEncoder(w).Encode(reg.Snapshot()); err != nil {
			t.Error(err)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	if code := runAsserts(client, srv.URL, "", "gateway_spool_dropped_total==0,gateway_segments_shipped_total>0"); code != 0 {
		t.Fatalf("gateway gate exited %d, want 0", code)
	}
	if code := runAsserts(client, srv.URL, "", "gateway_spool_dropped_total>0"); code != 1 {
		t.Fatalf("failing gateway gate exited %d, want 1", code)
	}
}
