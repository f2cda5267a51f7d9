package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeMetric(t *testing.T) {
	for name, c := range map[string]struct {
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		"same":                          {[]float64{100, 101, 102}, []float64{100.5, 101, 101.5}, false, 0.05, verdictOK},
		"worse within the bound":        {[]float64{100, 101, 102}, []float64{103, 104, 105}, false, 0.05, verdictOK},
		"lower metric got higher":       {[]float64{100, 101, 102}, []float64{110, 111, 112}, false, 0.05, verdictRegression},
		"higher metric got lower":       {[]float64{100, 101, 102}, []float64{90, 91, 92}, true, 0.05, verdictRegression},
		"higher metric got higher":      {[]float64{100, 101, 102}, []float64{110, 111, 112}, true, 0.05, verdictOK},
		"lower metric got lower":        {[]float64{100, 101, 102}, []float64{90, 91, 92}, false, 0.05, verdictOK},
		"spread wider than the bound":   {[]float64{80, 100, 120}, []float64{85, 104, 125}, false, 0.05, verdictUnresolved},
		"wide spread but every run won": {[]float64{80, 100, 120}, []float64{50, 60, 70}, false, 0.05, verdictBetter},
		"exact metric unchanged":        {[]float64{1, 1, 1}, []float64{1, 1, 1}, true, 0, verdictOK},
		"exact metric dropped":          {[]float64{1, 1, 1}, []float64{1, 0.95, 0.95}, true, 0, verdictUnresolved},
		"exact metric dropped on all":   {[]float64{1, 1, 1}, []float64{0.95, 0.95, 0.95}, true, 0, verdictRegression},
	} {
		if got, _ := judgeMetric(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", name, got, c.want)
		}
	}
	if _, worse := judgeMetric([]float64{100}, []float64{110}, false, 0.2); !near(worse, 0.1) {
		t.Errorf("worse = %v, want 0.1", worse)
	}
	if _, worse := judgeMetric([]float64{100}, []float64{110}, true, 0.2); !near(worse, -0.1) {
		t.Errorf("worse = %v, want -0.1 for a higher-is-better metric that rose", worse)
	}
}

func writeReport(t *testing.T, dir, name string, msps []float64, failed int) string {
	t.Helper()
	wr := workloadReport{Name: "quiet_air"}
	for _, v := range msps {
		wr.Runs = append(wr.Runs, &result{
			Workload: "quiet_air",
			Verdict:  verdict{Packets: 4, Reports: 2, CloudFrame: 4, Ops: 2, Failed: failed},
			Metrics:  map[string]metric{"e2e_msps": {v, "Msps"}, "setup_s": {0.5, "s"}},
		})
	}
	wr.Summary = summarize(wr.Runs)
	data, err := json.Marshal(report{Workloads: []workloadReport{wr}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
		{"name":"e2e_msps","unit":"Msps","better":"higher","bound":0.08}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent := writeReport(t, dir, "a.json", []float64{2.50, 2.52, 2.54}, 0)
	for name, c := range map[string]struct {
		path string
		code int
		want string
	}{
		"same code":       {writeReport(t, dir, "same.json", []float64{2.51, 2.52, 2.53}, 0), 0, "ok"},
		"slower":          {writeReport(t, dir, "slow.json", []float64{2.0, 2.02, 2.04}, 0), 1, "regression"},
		"noisy":           {writeReport(t, dir, "noisy.json", []float64{2.0, 2.5, 3.0}, 0), 0, "unresolved"},
		"more failed ops": {writeReport(t, dir, "fail.json", []float64{2.51, 2.52, 2.53}, 1), 1, "DIFFER"},
	} {
		var out, errOut bytes.Buffer
		if code := compareFiles(spec, parent, c.path, &printer{w: &out}, &printer{w: &errOut}); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", name, code, c.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", name, c.want, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(spec, parent, filepath.Join(dir, "absent.json"), &printer{w: &out}, &printer{w: &errOut}); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
