package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/galiot"
)

// TestRecordReplayAgainstTruth records seeded air with the galiot-record
// binary, replays each capture in process and scores the replayed frames
// against the .truth sidecar as a (tech, payload) multiset.
//
// The pins are what the pipeline recovers today: each default-gap capture
// detects as one segment, so most packets are lost to segmentation
// (ROADMAP items 5 and 13). This pins that loss rather than hiding it; the
// fix for item 5 moves the pins. Besides -seconds, -seed and -gap, every
// capture uses galiot-record's default flags.
//
// The sparse -gap 1.0 capture is replayed twice: through run, in the
// command's 2^18-sample chunks, and as one whole-capture Process call.
// The difference is the frames lost where a packet straddles a chunk
// boundary (ROADMAP 13(a)).
func TestRecordReplayAgainstTruth(t *testing.T) {
	if raceEnabled {
		t.Skip("~20 s of decode; the non-race test step runs it")
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

	for _, tc := range []struct {
		seconds                           string
		seed                              int
		gap                               string // "" keeps galiot-record's default
		whole                             bool   // one Process call instead of run's chunks
		packets, matched, spurious, segms int
	}{
		{"1", 1, "", false, 34, 11, 0, 1},
		{"2", 1, "", false, 63, 8, 0, 1},
		{"2", 2, "", false, 55, 6, 0, 1},
		{"2", 3, "", false, 55, 8, 0, 1},
		{"4", 1, "1.0", false, 8, 5, 0, 4},
		{"4", 1, "1.0", true, 8, 8, 0, 4},
	} {
		name := fmt.Sprintf("seconds=%s/seed=%d", tc.seconds, tc.seed)
		args := []string{"-seconds", tc.seconds, "-seed", fmt.Sprint(tc.seed)}
		if tc.gap != "" {
			name += "/gap=" + tc.gap
			args = append(args, "-gap", tc.gap)
			if tc.whole {
				name += "/chunk=whole"
			} else {
				name += "/chunk=262144"
			}
		}
		t.Run(name, func(t *testing.T) {
			capPath := filepath.Join(dir, fmt.Sprintf("cap-%s-%d-%s.cu8", tc.seconds, tc.seed, tc.gap))
			if _, err := os.Stat(capPath); err != nil {
				if out, err := exec.Command(record, append(args, "-out", capPath)...).CombinedOutput(); err != nil {
					t.Fatalf("galiot-record: %v\n%s", err, out)
				}
			}
			packets, matched, spurious, segments, out := replayScore(t, capPath, tc.whole)
			if packets != tc.packets || matched != tc.matched || spurious != tc.spurious || segments != tc.segms {
				t.Fatalf("packets %d, matched %d, spurious %d, segments %d; want %d, %d, %d, %d\n%s",
					packets, matched, spurious, segments, tc.packets, tc.matched, tc.spurious, tc.segms, out)
			}
		})
	}
}

// replayScore replays capPath — through run, or with whole set as one
// Process call over every sample in the file — and scores its frames
// against the capture's .truth sidecar. It returns the sidecar's packet
// count, the frames that match a sent (tech, payload) once each, the
// frames that match none, the replay's segment count and its output.
func replayScore(t *testing.T, capPath string, whole bool) (packets, matched, spurious, segments int, out string) {
	t.Helper()
	truth, err := os.ReadFile(capPath + ".truth")
	if err != nil {
		t.Fatal(err)
	}
	sent := map[string]int{} // "tech payload_hex" -> transmissions
	for _, line := range strings.Split(strings.TrimSpace(string(truth)), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] == "#" {
			continue
		}
		sent[f[0]+" "+f[4]]++
		packets++
	}

	var b strings.Builder
	if whole {
		f, err := os.Open(capPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if err := replay(f, galiot.SampleRate, true, int(fi.Size()/2), &b); err != nil {
			t.Fatalf("replay: %v\n%s", err, b.String())
		}
	} else if code := run([]string{"-in", capPath}, &b); code != 0 {
		t.Fatalf("replay exit %d:\n%s", code, b.String())
	}
	out = b.String()
	frameLine := regexp.MustCompile(`^(edge|cloud)\s+(\S+)\s+@\d+\s+crc=\S+\s+payload=([0-9a-f]*)$`)
	for _, line := range strings.Split(out, "\n") {
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
	summary := regexp.MustCompile(`: (\d+) segments, (\d+) frames recovered`).FindStringSubmatch(out)
	if summary == nil {
		t.Fatalf("no summary line in:\n%s", out)
	}
	segments, err = strconv.Atoi(summary[1])
	if err != nil {
		t.Fatal(err)
	}
	frames, err := strconv.Atoi(summary[2])
	if err != nil {
		t.Fatal(err)
	}
	if frames != matched+spurious {
		t.Fatalf("summary counts %d frames, but %d lines scored", frames, matched+spurious)
	}
	return packets, matched, spurious, segments, out
}
