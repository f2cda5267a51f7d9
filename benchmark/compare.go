package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// summary is one metric over the runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median
	Values []float64 `json:"values"`
}

func summarize(runs []*result) map[string]summary {
	out := map[string]summary{}
	if len(runs) == 0 {
		return out
	}
	for name, m := range runs[0].Metrics {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[name].Value)
		}
		q1, q2, q3 := quartiles(vals)
		out[name] = summary{Unit: m.Unit, Median: q2, Q1: q1, Q3: q3, Spread: spread(vals), Values: vals}
	}
	return out
}

func printSummary(w *printer, workload string, defs []metricDef, s map[string]summary) {
	w.printf("\n%s, %d runs: median [q1 .. q3] spread\n", workload, len(s[defs[0].name].Values))
	for _, d := range defs {
		m := s[d.name]
		w.printf("  %-34s %14.6g [%.6g .. %.6g] %5.1f%% %s\n", d.name, m.Median, m.Q1, m.Q3, 100*m.Spread, m.Unit)
	}
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric pairing.
const (
	verdictOK         = "ok"         // the spread resolves the bound, and B's median is within it of A's
	verdictRegression = "regression" // the spread resolves the bound, and B's median is worse than A's by more
	verdictUnresolved = "unresolved" // the run-to-run spread exceeds the bound: no claim either way
	verdictBetter     = "better"     // the spread exceeds the bound, but every run of B beats every run of A
)

// judgeMetric compares run set b (the change) with run set a (the parent)
// on one metric. worse is how far b's median is on the wrong side of a's,
// as a share of a's median (negative: better).
func judgeMetric(a, b []float64, higherIsBetter bool, bound float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if ma < 0 {
			worse = -worse
		}
	}
	if higherIsBetter {
		worse = -worse
	}
	// Signed so that larger is better, to compare the two sets run by run.
	sign := 1.0
	if !higherIsBetter {
		sign = -1
	}
	worstB, bestA := sign*b[0], sign*a[0]
	for _, v := range b {
		worstB = min(worstB, sign*v)
	}
	for _, v := range a {
		bestA = max(bestA, sign*v)
	}
	unresolved := max(spread(a), spread(b)) > bound
	switch {
	case unresolved && worstB > bestA:
		return verdictBetter, worse
	case unresolved:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// compareFiles prints, for every workload × end-to-end metric, whether the
// runs in pathB hold the line drawn by the runs in pathA under the bounds
// of the spec, and that the outcome counts are identical. It returns the
// process exit code: 1 on any regression or count mismatch.
func compareFiles(specPath, pathA, pathB string, stdout, stderr *printer) int {
	var spec benchSpec
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			stderr.printf("benchmark: -compare: %v\n", err)
			return 2
		}
	}
	inB := map[string]workloadReport{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	counts := map[string]int{}
	stdout.printf("%-16s %-24s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			stdout.printf("%-16s missing from one side\n", wa.Name)
			counts[verdictRegression]++
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := wa.Summary[m.Name]
			sb, okB := wb.Summary[m.Name]
			if !okA || !okB {
				continue // a traced set carries no end-to-end metrics
			}
			v, worse := judgeMetric(sa.Values, sb.Values, m.Better == "higher", m.Bound)
			counts[v]++
			stdout.printf("%-16s %-24s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", wa.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, v)
		}
		v := "identical"
		if ca, cb := outcomeCounts(wa.Runs), outcomeCounts(wb.Runs); ca != cb {
			v = fmt.Sprintf("DIFFER: A %s, B %s", ca, cb)
			counts[verdictRegression]++
		}
		stdout.printf("%-16s %-24s %s\n", wa.Name, "reports/frames/failed", v)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		stdout.printf("%s: %d  ", k, counts[k])
	}
	stdout.printf("\n")
	if counts[verdictRegression] > 0 {
		return 1
	}
	return 0
}

// outcomeCounts renders what must repeat exactly between two sets of runs
// of one seed sequence: reports received, frames recovered, operations and
// failures, run by run.
func outcomeCounts(runs []*result) string {
	s := ""
	for _, r := range runs {
		v := r.Verdict
		s += fmt.Sprintf("[%d %d+%d/%d %d/%d]", v.Reports, v.CloudFrame, v.EdgeFrames, v.Packets, v.Failed, v.Ops)
	}
	return s
}
