package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRecordReplayAgainstTruth records one second of seed-1 air with the
// galiot-record binary, replays it in process and scores the replayed
// frames against the .truth sidecar as a (tech, payload) multiset.
//
// The pins are what the pipeline recovers today: the capture detects as one
// segment, so 23 of 34 packets are lost to segmentation (ROADMAP items 5
// and 13). This pins that loss rather than hiding it; the fix for item 5
// moves the pin.
func TestRecordReplayAgainstTruth(t *testing.T) {
	if raceEnabled {
		t.Skip("~5 s of decode; the non-race test step runs it")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH: cannot build galiot-record")
	}
	dir := t.TempDir()
	record := filepath.Join(dir, "galiot-record")
	if out, err := exec.Command(goTool, "build", "-o", record, "repro/cmd/galiot-record").CombinedOutput(); err != nil {
		t.Fatalf("build galiot-record: %v\n%s", err, out)
	}
	capPath := filepath.Join(dir, "cap.cu8")
	if out, err := exec.Command(record, "-seconds", "1", "-seed", "1", "-out", capPath).CombinedOutput(); err != nil {
		t.Fatalf("galiot-record: %v\n%s", err, out)
	}

	truth, err := os.ReadFile(capPath + ".truth")
	if err != nil {
		t.Fatal(err)
	}
	sent := map[string]int{} // "tech payload_hex" -> transmissions
	packets := 0
	for _, line := range strings.Split(strings.TrimSpace(string(truth)), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] == "#" {
			continue
		}
		sent[f[0]+" "+f[4]]++
		packets++
	}

	var out strings.Builder
	if code := run([]string{"-in", capPath}, &out); code != 0 {
		t.Fatalf("replay exit %d:\n%s", code, out.String())
	}
	frameLine := regexp.MustCompile(`^(edge|cloud)\s+(\S+)\s+@\d+\s+crc=\S+\s+payload=([0-9a-f]*)$`)
	matched, spurious := 0, 0
	for _, line := range strings.Split(out.String(), "\n") {
		m := frameLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if key := m[2] + " " + m[3]; sent[key] > 0 {
			sent[key]--
			matched++
		} else {
			spurious++
		}
	}
	summary := regexp.MustCompile(`: (\d+) segments, (\d+) frames recovered`).FindStringSubmatch(out.String())
	if summary == nil {
		t.Fatalf("no summary line in:\n%s", out.String())
	}
	if packets != 34 || matched != 11 || spurious != 0 || summary[1] != "1" {
		t.Fatalf("packets %d, matched %d, spurious %d, segments %s; want 34, 11, 0, 1\n%s",
			packets, matched, spurious, summary[1], out.String())
	}
	if summary[2] != "11" {
		t.Fatalf("summary counts %s frames, but %d lines scored", summary[2], matched+spurious)
	}
}
