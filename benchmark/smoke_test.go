package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// One block per workload through the real deployments, scored against
// ground truth. Under the race detector the decode of one collision_storm
// block alone takes a minute, so that workload is left to the plain run.
func TestSmokeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "smoke.json")
	want := len(workloads)
	args := []string{"-smoke", "-tmp", filepath.Join(dir, "tmp"), "-out", outPath}
	if raceEnabled {
		want = 0
		for _, w := range workloads {
			if w.name == "collision_storm" {
				continue
			}
			want++
			var out, errOut bytes.Buffer
			if code := run(append(args, "-workload", w.name), &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d\n%s%s", w.name, code, out.String(), errOut.String())
			}
			checkSmokeReport(t, outPath, 1)
		}
		return
	}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	checkSmokeReport(t, outPath, want)
}

func checkSmokeReport(t *testing.T, outPath string, want int) {
	t.Helper()
	var rep report
	if err := readJSON(outPath, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != want {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), want)
	}
	for _, w := range rep.Workloads {
		r := w.Runs[0]
		if !r.Correct || r.Verdict.Failed != 0 || r.Verdict.recoveryRatio() != 1 {
			t.Errorf("%s: %+v", w.Name, r.Verdict)
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v", w.Name, d.name, m)
			}
		}
	}
	if rep.Env.NumCPU < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" {
		t.Errorf("environment not recorded: %+v", rep.Env)
	}
}

func TestSmokeTracedResultLine(t *testing.T) {
	if raceEnabled {
		t.Skip("the replay runs on one goroutine; its concurrent part, the reference session, is TestSmokeEndToEnd's")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "durable_fanin", "--seed", "2", "--seconds", "28", "--trace", "1", "-smoke", "-tmp", filepath.Join(t.TempDir(), "tmp")}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
		t.Errorf("result line %+v", res)
	}
	if !strings.Contains(out.String(), "budget: layer self time") {
		t.Errorf("no reconciliation table in:\n%s", out.String())
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
