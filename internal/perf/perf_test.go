package perf

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
)

// fakeClock is a deterministic monotonic clock for harness tests: every
// read advances it by a fixed step, so all wall times are nonzero and
// reproducible. The step sits above Compare's MinWallNs floor because a
// stage with no internal clock reads spans exactly one step of wall time.
// The farm_queue stage reads it from several workers at once, hence atomic.
type fakeClock struct {
	now  atomic.Int64
	step int64
}

func (c *fakeClock) read() int64 { return c.now.Add(c.step) }

// cheapStages is the harness subset the package tests run: it covers the
// collision lanes, both codec directions and the concurrent farm path
// while leaving out detect_stream and cloud_decode, whose workloads push
// a single `go test -race` run into minutes.
var cheapStages = []string{"edge_decode", "backhaul_encode", "backhaul_decode", "kill_codes", "farm_queue"}

func runQuick(t *testing.T, seed uint64) *Report {
	t.Helper()
	clk := &fakeClock{step: 2_000_000}
	rep, err := Run(Options{
		Seed:   seed,
		Quick:  true,
		Clock:  clk.read,
		Stages: cheapStages,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunDeterministic runs the quick harness twice with the same seed and
// requires the canonical projections (everything except timing-derived
// measurements) to match exactly — the package's core contract.
func TestRunDeterministic(t *testing.T) {
	a := Canonical(runQuick(t, 7))
	b := Canonical(runQuick(t, 7))

	aj, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("canonical reports differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", aj, bj)
	}
}

// TestRunSeedChangesWorkload guards against the opposite failure: if two
// different seeds canonicalize identically, the seed is not actually
// reaching the workload generators.
func TestRunSeedChangesWorkload(t *testing.T) {
	a := Canonical(runQuick(t, 7))
	b := Canonical(runQuick(t, 8))
	if reflect.DeepEqual(a.Counters, b.Counters) && reflect.DeepEqual(a.Stages, b.Stages) {
		t.Error("seeds 7 and 8 produced identical canonical reports; seed is not wired through")
	}
}

func TestRunCoversStages(t *testing.T) {
	rep := runQuick(t, 1)
	if len(rep.Stages) != len(cheapStages) {
		t.Fatalf("got %d stages, want %d", len(rep.Stages), len(cheapStages))
	}
	for i, s := range rep.Stages {
		if s.Name != cheapStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, cheapStages[i])
		}
		if s.WallNs <= 0 || s.NsPerOp <= 0 || s.NsPerSample <= 0 {
			t.Errorf("%s: non-positive timing: wall=%d ns/op=%f ns/sample=%f", s.Name, s.WallNs, s.NsPerOp, s.NsPerSample)
		}
		if s.SamplesPerIter <= 0 {
			t.Errorf("%s: SamplesPerIter = %d", s.Name, s.SamplesPerIter)
		}
	}
	if len(rep.Registry.Counters) == 0 {
		t.Error("registry snapshot has no counters; instrumentation not wired")
	}
}

func TestRunRequiresClock(t *testing.T) {
	if _, err := Run(Options{Seed: 1}); err == nil {
		t.Fatal("Run without a clock should fail")
	}
}

func TestStageNamesNonEmptyAndUnique(t *testing.T) {
	names := StageNames()
	if len(names) < 6 {
		t.Fatalf("harness covers %d stages, want at least 6", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate stage name %q", n)
		}
		seen[n] = true
	}
}

// slowdown clones a report with every stage's timing scaled by factor —
// the synthetic regression fixture the comparator must catch.
func slowdown(r *Report, factor float64) *Report {
	out := *r
	out.Stages = append([]StageResult(nil), r.Stages...)
	for i := range out.Stages {
		s := &out.Stages[i]
		s.WallNs = int64(float64(s.WallNs) * factor)
		s.NsPerOp *= factor
		s.NsPerSample *= factor
		s.SamplesPerSec /= factor
		s.FramesPerSec /= factor
	}
	return &out
}

// TestCompareFlagsSyntheticSlowdown is the acceptance fixture: a 2× wall
// slowdown of every hot stage must gate, and Regressions() must carry it.
func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	base := runQuick(t, 1)
	cur := slowdown(base, 2)

	cmp, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	regs := cmp.Regressions()
	if len(regs) == 0 {
		t.Fatalf("2x slowdown produced no gating regressions:\n%s", cmp.Render())
	}
	for _, d := range regs {
		if !d.Hot {
			t.Errorf("cold stage %s in Regressions()", d.Stage)
		}
		if d.Verdict != Regressed {
			t.Errorf("%s/%s verdict = %s", d.Stage, d.Metric, d.Verdict)
		}
	}
	// farm_queue is cold: a regression there must never gate.
	for _, d := range regs {
		if d.Stage == "farm_queue" {
			t.Error("cold farm_queue stage is gating")
		}
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	rep := runQuick(t, 1)
	cmp, err := Compare(rep, rep, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := cmp.Regressions(); len(regs) > 0 {
		t.Fatalf("self-comparison regressed:\n%s", cmp.Render())
	}
	for _, d := range cmp.Deltas {
		if d.Verdict == Regressed || d.Verdict == Improved {
			t.Errorf("self-comparison delta %s/%s = %s", d.Stage, d.Metric, d.Verdict)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall int64, nsPerSample, allocs float64) *Report {
		return &Report{
			SchemaVersion: SchemaVersion,
			Stages: []StageResult{{
				Name: "edge_decode", Hot: true, Iters: 6, SamplesPerIter: 1000,
				WallNs: wall, NsPerSample: nsPerSample, AllocsPerOp: allocs,
			}},
		}
	}
	base := mk(10e6, 100, 50)

	cases := []struct {
		name    string
		cur     *Report
		metric  string
		verdict Verdict
	}{
		{"2x slower regresses", mk(20e6, 200, 50), "ns_per_sample", Regressed},
		{"2x faster improves", mk(5e6, 50, 50), "ns_per_sample", Improved},
		{"10% wobble is noise", mk(11e6, 110, 50), "ns_per_sample", Unchanged},
		{"allocs doubled regresses", mk(10e6, 100, 100), "allocs_per_op", Regressed},
		{"one extra alloc is slack", mk(10e6, 100, 51), "allocs_per_op", Unchanged},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp, err := Compare(base, tc.cur, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range cmp.Deltas {
				if d.Metric == tc.metric {
					if d.Verdict != tc.verdict {
						t.Fatalf("%s verdict = %s, want %s\n%s", tc.metric, d.Verdict, tc.verdict, cmp.Render())
					}
					return
				}
			}
			t.Fatalf("no delta for metric %s", tc.metric)
		})
	}
}

func TestCompareSkipsBelowWallFloor(t *testing.T) {
	mk := func(wall int64, ns float64) *Report {
		return &Report{SchemaVersion: SchemaVersion, Stages: []StageResult{{
			Name: "x", Hot: true, Iters: 1, SamplesPerIter: 10, WallNs: wall, NsPerSample: ns, AllocsPerOp: -1,
		}}}
	}
	cmp, err := Compare(mk(1000, 1), mk(1000, 50), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := cmp.Deltas[0].Verdict; v != Skipped {
		t.Fatalf("sub-millisecond stage verdict = %s, want skipped", v)
	}
}

func TestCompareIncomparableIdentity(t *testing.T) {
	mk := func(iters int) *Report {
		return &Report{SchemaVersion: SchemaVersion, Stages: []StageResult{{
			Name: "x", Hot: true, Iters: iters, SamplesPerIter: 10, WallNs: 10e6, NsPerSample: 100, AllocsPerOp: -1,
		}}}
	}
	cmp, err := Compare(mk(4), mk(8), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := cmp.Deltas[0].Verdict; v != Incomparable {
		t.Fatalf("identity mismatch verdict = %s, want incomparable", v)
	}
	if len(cmp.Regressions()) != 0 {
		t.Error("incomparable stages must not gate")
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	a := &Report{SchemaVersion: SchemaVersion}
	b := &Report{SchemaVersion: SchemaVersion + 1}
	if _, err := Compare(a, b, CompareOptions{}); err == nil {
		t.Fatal("schema version mismatch should error")
	}
}

func TestCompareCoverageDrift(t *testing.T) {
	mk := func(names ...string) *Report {
		r := &Report{SchemaVersion: SchemaVersion}
		for _, n := range names {
			r.Stages = append(r.Stages, StageResult{Name: n, Hot: true, Iters: 1, SamplesPerIter: 1, WallNs: 10e6, NsPerSample: 1, AllocsPerOp: -1})
		}
		return r
	}
	cmp, err := Compare(mk("a", "b"), mk("b", "c"), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmp.NewStages, []string{"c"}) {
		t.Errorf("NewStages = %v, want [c]", cmp.NewStages)
	}
	if !reflect.DeepEqual(cmp.RemovedStages, []string{"a"}) {
		t.Errorf("RemovedStages = %v, want [a]", cmp.RemovedStages)
	}
}

// TestCanonicalDropsTiming makes sure no timing-derived field survives the
// canonical projection (a field added to StageResult but not classified
// here will fail TestRunDeterministic the slow, flaky way; this catches it
// cheaply).
func TestCanonicalDropsTiming(t *testing.T) {
	r := &Report{
		SchemaVersion: SchemaVersion,
		Seed:          3,
		Quick:         true,
		Stages: []StageResult{{
			Name: "x", Hot: true, Iters: 2, SamplesPerIter: 10, FramesTotal: 5,
			WallNs: 123, NsPerOp: 4, NsPerSample: 5, SamplesPerSec: 6, FramesPerSec: 7,
			AllocsPerOp: 8, BytesPerOp: 9,
			SubStages: []SubStage{{Name: "sub", Count: 3, WallNs: 99}},
		}},
		Runtime: RuntimeStats{GCCycles: 1},
	}
	c := Canonical(r)
	j, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"wall_ns", "ns_per_op", "ns_per_sample", "per_sec", "allocs_per_op", "bytes_per_op", "gc_cycles", "histograms"} {
		if contains := string(j); containsStr(contains, banned) {
			t.Errorf("canonical JSON still carries %q: %s", banned, j)
		}
	}
	if c.Stages[0].SubStages[0].Count != 3 {
		t.Error("canonical dropped sub-stage identity")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
