package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestInspectReportsLiveAndTraced checks that Inspect sees exactly what
// recovery would replay — data records minus acks — and surfaces the
// journaled trace context, without mutating the directory.
func TestInspectReportsLiveAndTraced(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openTest(t, Options{Dir: dir})
	seg1 := testSeg(100, 16)
	seg1.Trace = 0xDEADBEEF00C0FFEE
	id1, err := l.Append(seg1)
	if err != nil {
		t.Fatalf("append traced: %v", err)
	}
	seg2 := testSeg(200, 16)
	id2, err := l.Append(seg2)
	if err != nil {
		t.Fatalf("append untraced: %v", err)
	}
	seg3 := testSeg(300, 16)
	seg3.Trace = 0x1234
	if _, err := l.Append(seg3); err != nil {
		t.Fatalf("append traced 2: %v", err)
	}
	l.Ack(id2)
	l.Abandon() // leave the files exactly as a crash would

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if rep.DataRecords != 3 || rep.AckRecords != 1 {
		t.Fatalf("records: data=%d acks=%d, want 3/1", rep.DataRecords, rep.AckRecords)
	}
	if len(rep.Live) != 2 {
		t.Fatalf("live: %d, want 2 (%+v)", len(rep.Live), rep.Live)
	}
	if rep.Live[0].ID != id1 || rep.Live[0].TraceID != 0xDEADBEEF00C0FFEE {
		t.Fatalf("live[0] = %+v, want id=%d trace=0xDEADBEEF00C0FFEE", rep.Live[0], id1)
	}
	if rep.Traced != 2 {
		t.Fatalf("traced = %d, want 2", rep.Traced)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("torn bytes on a clean log: %d", rep.TornBytes)
	}

	// Inspect must agree with recovery, and must not have changed what
	// recovery finds.
	_, entries, _ := openTest(t, Options{Dir: dir, Metrics: NewMetrics(obs.NewRegistry())})
	if len(entries) != len(rep.Live) {
		t.Fatalf("recovery replays %d, inspect reported %d live", len(entries), len(rep.Live))
	}
	for i, e := range entries {
		if e.ID != rep.Live[i].ID || e.Seg.Trace != rep.Live[i].TraceID {
			t.Fatalf("entry %d: id=%d trace=%#x, inspect said id=%d trace=%#x",
				i, e.ID, e.Seg.Trace, rep.Live[i].ID, rep.Live[i].TraceID)
		}
	}
}

// TestInspectTornTail checks that a torn tail is reported byte-exactly and
// the file on disk keeps its garbage (Inspect never truncates).
func TestInspectTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openTest(t, Options{Dir: dir})
	mustAppend(t, l, 2)
	l.Abandon()

	path := filepath.Join(dir, fileName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	garbage := []byte{recData, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	if _, err := f.Write(garbage); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if rep.TornBytes != int64(len(garbage)) {
		t.Fatalf("torn bytes = %d, want %d", rep.TornBytes, len(garbage))
	}
	if rep.DataRecords != 2 || len(rep.Live) != 2 {
		t.Fatalf("clean records: data=%d live=%d, want 2/2", rep.DataRecords, len(rep.Live))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("inspect mutated the file: %d -> %d bytes", len(before), len(after))
	}
}

// TestInspectSurvivesCodecVariants checks a traced data record inspects
// cleanly with its trace and sample count (the segment codec's CRC trailer
// rides inside the WAL frame).
func TestInspectSurvivesCodecVariants(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openTest(t, Options{Dir: dir})
	seg := testSeg(500, 32)
	seg.Trace = 7
	if _, err := l.Append(seg); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Abandon()
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if len(rep.Live) != 1 || rep.Live[0].TraceID != 7 || rep.Live[0].SegSamples != 32 {
		t.Fatalf("live = %+v, want one 32-sample record with trace 7", rep.Live)
	}
}
