package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordWritesCaptureAndTruth checks the capture is cu8 at 1 Msps and
// the sidecar lists exactly the packets the summary line counts.
func TestRecordWritesCaptureAndTruth(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "cap.cu8")
	var out strings.Builder
	if code := run([]string{"-seconds", "0.2", "-seed", "3", "-out", capPath}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	raw, err := os.ReadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2*200000 {
		t.Fatalf("capture holds %d bytes, want 2 per sample for 200000 samples", len(raw))
	}
	truth, err := os.ReadFile(capPath + ".truth")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(truth)), "\n")
	if lines[0] != "# tech offset length snr_db payload_hex" {
		t.Fatalf("sidecar header %q", lines[0])
	}
	packets := lines[1:]
	for _, l := range packets {
		if f := strings.Fields(l); len(f) != 5 {
			t.Fatalf("sidecar line %q: want 5 fields", l)
		}
	}
	if want := " 200000 samples (0.20 s at 1000000 Hz), "; !strings.Contains(out.String(), want) {
		t.Fatalf("summary %q lacks %q", out.String(), want)
	}
	if want := fmt.Sprintf(" %d packets ", len(packets)); len(packets) == 0 || !strings.Contains(out.String(), want) {
		t.Fatalf("summary %q does not count the %d sidecar packets", out.String(), len(packets))
	}
}
