package main

import (
	"regexp"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload and metric BENCHMARK.json names is one the program emits,
// with the same unit, and the other way round.
func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default -seconds is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: the two reasons differ", w.Name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q breaks the naming rules", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, spec []specMetric, defs []metricDef, bounded bool) {
		if len(spec) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(spec), len(defs))
			return
		}
		for i, m := range spec {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s %q breaks the naming rules", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
}

// A traced run fills in every per-layer metric, whatever the deployment.
func TestReplayEmitsEveryPerLayerMetric(t *testing.T) {
	r := replay{w: workloads[0], tr: &tracer{t0: time.Now()}}
	got := r.metrics(&tally{}, sessionResult{}, 1)
	if len(got) != len(perLayer) {
		t.Errorf("%d metrics computed, %d declared", len(got), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := got[d.name]; !ok {
			t.Errorf("%s is declared but not computed", d.name)
		}
	}
}

func TestPhaseSizesAreFixedWork(t *testing.T) {
	for _, w := range workloads {
		c, p := w.capacityBlocks(defaultSeconds), w.pacedBlocks(defaultSeconds)
		if c%len(w.kinds) != 0 || c < len(w.kinds) {
			t.Errorf("%s: capacity phase of %d blocks is not whole passes over %d episode kinds", w.name, c, len(w.kinds))
		}
		if p < 1 || float64(p)*w.period.Seconds() > defaultSeconds*pacedShare {
			t.Errorf("%s: paced phase of %d blocks at %v overruns its share", w.name, p, w.period)
		}
		if w.capacityBlocks(0.001) != len(w.kinds) || w.pacedBlocks(0.001) != 1 {
			t.Errorf("%s: the smallest run must still be one pass and one paced block", w.name)
		}
	}
}
