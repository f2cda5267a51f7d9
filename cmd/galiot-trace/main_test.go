package main

import (
	"strings"
	"testing"

	"repro/galiot"
)

// TestAssertOverLiveStore runs the -assert gate the way CI does: fetch
// every retained tree from a live ObsServer, then judge them. The gate is
// the only non-empty check on a process's traces, so each failure it
// exists for must fire, and a stitched gateway+cloud pair must pass.
func TestAssertOverLiveStore(t *testing.T) {
	const id = 0xfeed
	gw := galiot.ObsSpanSnapshot{TraceID: id, SpanID: 1, Kind: "gateway-segment", Start: 0, End: 10}
	cl := galiot.ObsSpanSnapshot{TraceID: id, SpanID: 2, Parent: 1, Kind: "cloud-segment", Start: 2, End: 8}
	orphan := galiot.ObsSpanSnapshot{TraceID: id, SpanID: 3, Parent: 99, Kind: "cloud-segment", Start: 3, End: 9}

	for _, tc := range []struct {
		name  string
		spans []galiot.ObsSpanSnapshot
		fail  string // substring of the gate's error; empty = pass
	}{
		{"empty store", nil, "no traces assembled"},
		{"orphan span", []galiot.ObsSpanSnapshot{gw, cl, orphan}, "1 orphan spans"},
		{"gateway only", []galiot.ObsSpanSnapshot{gw}, "no trace carries both"},
		{"cloud only", []galiot.ObsSpanSnapshot{{TraceID: id, SpanID: 2, Kind: "cloud-segment"}}, "no trace carries both"},
		{"stitched pair", []galiot.ObsSpanSnapshot{gw, cl}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := galiot.NewObsTraceStore(nil)
			for _, sn := range tc.spans {
				store.Ingest(sn)
			}
			srv := &galiot.ObsServer{Traces: store}
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			trees, err := fetch(srv.Addr().String(), "", 0)
			if err != nil {
				t.Fatal(err)
			}
			err = assert(trees)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("gate failed a stitched pair: %v", err)
			case tc.fail != "" && err == nil:
				t.Fatalf("gate passed, want failure %q", tc.fail)
			case tc.fail != "" && !strings.Contains(err.Error(), tc.fail):
				t.Fatalf("gate error = %q, want %q", err, tc.fail)
			}
			if tc.fail == "" && countStitched(trees) != 1 {
				t.Fatalf("stitched = %d, want 1", countStitched(trees))
			}
		})
	}
}
