package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAsserts(t *testing.T) {
	got, err := parseAsserts("gateway_spool_depth_count<=8, wal_live_bytes==0 ,cloud_segments_decoded_total>10")
	if err != nil {
		t.Fatal(err)
	}
	want := []assertion{
		{name: "gateway_spool_depth_count", op: "<=", value: 8},
		{name: "wal_live_bytes", op: "==", value: 0},
		{name: "cloud_segments_decoded_total", op: ">", value: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d assertions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assertion %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	for _, bad := range []string{"", "  ,  ", "no_operator", "name<=abc", "<=5"} {
		if _, err := parseAsserts(bad); err == nil {
			t.Fatalf("parseAsserts(%q) accepted", bad)
		}
	}
	// "<=" must win over "<" even though "<" matches first by position.
	one, err := parseAsserts("a_b<=5")
	if err != nil || one[0].op != "<=" || one[0].value != 5 {
		t.Fatalf("a_b<=5 parsed as %+v (err %v)", one, err)
	}
}

// TestEvalAssertsOverCannedRollup runs the gate over the checked-in
// METRICS.json, a /metrics snapshot: counters and gauges resolve to their
// value, and a missing series fails rather than silently passing.
func TestEvalAssertsOverCannedRollup(t *testing.T) {
	snap, err := loadSnapshot(filepath.Join("testdata", "METRICS.json"))
	if err != nil {
		t.Fatal(err)
	}

	pass := []string{
		"cloud_segments_decoded_total==42",          // counter -> value
		"cloud_shard1_farm_jobs_admitted_total==12", // per-shard farm series
		"gateway_spool_dropped_total<=0",            // zero threshold holds
		"gateway_spool_depth_count<=9",              // gauge -> value
		"wal_live_bytes<=65536",                     // gauge exactly at threshold
		"wal_truncated_records_total!=0",            // observed truncation
	}
	lines, ok := evalAsserts(snap, mustParse(t, strings.Join(pass, ",")))
	if !ok {
		t.Fatalf("passing gate failed:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ok") {
			t.Fatalf("unexpected line in passing gate: %q", l)
		}
	}

	fail := []struct {
		expr   string
		reason string
	}{
		{"gateway_spool_depth_count<=8", "gauge 9 over threshold"},
		{"cloud_segments_decoded_total<42", "counter not under"},
		{"wal_records_appended_total==0", "series absent from the snapshot"},
	}
	for _, f := range fail {
		lines, ok := evalAsserts(snap, mustParse(t, f.expr))
		if ok {
			t.Fatalf("%s should fail (%s):\n%s", f.expr, f.reason, strings.Join(lines, "\n"))
		}
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "FAIL") {
			t.Fatalf("%s: want one FAIL line, got %v", f.expr, lines)
		}
	}

	// Mixed gate: one failure fails the whole gate but every line reports.
	lines, ok = evalAsserts(snap, mustParse(t, "cloud_segments_decoded_total==42,wal_live_bytes==0"))
	if ok || len(lines) != 2 {
		t.Fatalf("mixed gate: ok=%v lines=%v", ok, lines)
	}
	if !strings.HasPrefix(lines[0], "ok") || !strings.HasPrefix(lines[1], "FAIL") {
		t.Fatalf("mixed gate lines = %v", lines)
	}
}

func mustParse(t *testing.T, spec string) []assertion {
	t.Helper()
	a, err := parseAsserts(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestLoadSnapshotFromShutdownLog reads the snapshot off galiot-cloud's
// `metrics: {...}` shutdown line inside a whole log, the form the CI
// loopback smoke saves.
func TestLoadSnapshotFromShutdownLog(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "METRICS.json"))
	if err != nil {
		t.Fatal(err)
	}
	log := "2026/01/02 15:04:05 observability endpoints on http://127.0.0.1:9903/metrics\n" +
		"2026/01/02 15:04:09 shard 0: 1 sessions routed, farm 30 admitted\n" +
		"2026/01/02 15:04:09 metrics: " + strings.ReplaceAll(string(body), "\n", "") + "\n"
	path := filepath.Join(t.TempDir(), "cloud.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines, ok := evalAsserts(snap, mustParse(t, "cloud_shard0_farm_jobs_admitted_total==30")); !ok {
		t.Fatalf("gate over the log line failed: %v", lines)
	}
}
