package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/resilience/wal"
)

// runWAL invokes the command seam and captures its streams.
func runWAL(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func testSeg(start int64, trace uint64) backhaul.Segment {
	samples := make([]complex128, 16)
	for i := range samples {
		samples[i] = complex(float64(i%7)/10-0.3, float64((i+3)%5)/10-0.2)
	}
	return backhaul.Segment{Start: start, SampleRate: 1e6, Samples: samples, Trace: trace}
}

// writeWAL journals five segments (the fourth traced) into dir with a
// rotation cap of three data records, acks ids 1 and 2, and abandons the
// log as a crash would. It returns the size of one data record.
func writeWAL(t *testing.T, dir string) int64 {
	t.Helper()
	enc, err := backhaul.DefaultCodec.Encode(testSeg(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// [kind:1][len:4][id:8][segment][crc32c:4]; a traced segment is 16
	// bytes longer.
	data := int64(5 + 8 + len(enc) + 4)
	l, _, err := wal.Open(wal.Options{Dir: dir, FileBytes: 3*data + 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		var trace uint64
		if i == 4 {
			trace = 0xabc
		}
		if _, err := l.Append(testSeg(int64(100*i), trace)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	l.Ack(1)
	l.Ack(2)
	l.Abandon()
	return data
}

func TestReportCountsTornTail(t *testing.T) {
	dir := t.TempDir()
	data := writeWAL(t, dir)
	garbage := []byte("not a wal record")
	f, err := os.OpenFile(filepath.Join(dir, "wal-00000002.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runWAL("-dir", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	const ack = 5 + 8 + 4
	torn := len(garbage)
	for _, want := range []string{
		fmt.Sprintf("%s: 2 files\n", dir),
		fmt.Sprintf("  wal-00000001.log: %d bytes, 3 data, 0 acks\n", 3*data),
		fmt.Sprintf("  wal-00000002.log: %d bytes, 2 data, 2 acks, TORN TAIL %d bytes\n", 2*data+16+2*ack+int64(torn), torn),
		fmt.Sprintf("totals: 5 data records, 2 acks, 3 live (unacked), 1 of them traced, %d torn bytes\n", torn),
		"  live id=3 start=300 samples=16\n",
		"  live id=4 start=400 samples=16 trace=0x0000000000000abc\n",
		"  live id=5 start=500 samples=16\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	code, out, _ = runWAL("-dir", dir, "-json")
	if code != 0 {
		t.Fatalf("-json exit %d", code)
	}
	var got wal.Report
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	want, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("-json decodes to\n%+v\nwant wal.Inspect's\n%+v", got, *want)
	}

	if code, _, stderr := runWAL("-dir", dir, "-verify"); code != 1 || !strings.Contains(stderr, fmt.Sprintf("VERIFY FAIL: %d torn bytes", torn)) {
		t.Errorf("-verify on a torn WAL: exit %d, stderr %q; want 1 and VERIFY FAIL", code, stderr)
	}
}

func TestVerifyCleanWAL(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir)
	if code, out, stderr := runWAL("-dir", dir, "-verify", "-records"); code != 0 || !strings.Contains(out, "    ack  id=2\n") {
		t.Errorf("-verify on a clean WAL: exit %d, stderr %q, out:\n%s", code, stderr, out)
	}
}

func TestMissingDirIsUsageError(t *testing.T) {
	if code, _, stderr := runWAL(); code != 2 || !strings.Contains(stderr, "-dir is required") {
		t.Errorf("no -dir: exit %d, stderr %q; want 2", code, stderr)
	}
}
