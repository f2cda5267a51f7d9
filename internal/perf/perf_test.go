package perf

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fakeClock is a deterministic monotonic clock for harness tests: every
// read advances it by a fixed step, so all wall times are nonzero and
// reproducible. The step sits above Compare's minWallNs floor because a
// stage with no internal clock reads spans exactly one step of wall time.
type fakeClock struct {
	now, step int64
}

func (c *fakeClock) read() int64 { c.now += c.step; return c.now }

// cheapStages is the harness subset the package tests run: it covers the
// collision lanes and both codec directions while leaving out
// detect_stream and cloud_decode, whose workloads push a single
// `go test -race` run into minutes.
var cheapStages = []string{"edge_decode", "backhaul_encode", "backhaul_decode", "kill_codes"}

func runQuick(t *testing.T, seed uint64) *Report {
	t.Helper()
	return runStages(t, seed, cheapStages)
}

func runStages(t *testing.T, seed uint64, stages []string) *Report {
	t.Helper()
	clk := &fakeClock{step: 2_000_000}
	rep, err := Run(Options{
		Seed:   seed,
		Quick:  true,
		Clock:  clk.read,
		Stages: stages,
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
// reaching the workload generators. It runs sic_decode: of the stages whose
// canonical projection depends on the payload at all (the decoders, through
// cancel.Stats), it is the cheapest — the 3-way collision stalls strict SIC
// at seed 7 and decodes fully at seed 8.
func TestRunSeedChangesWorkload(t *testing.T) {
	a := Canonical(runStages(t, 7, []string{"sic_decode"}))
	b := Canonical(runStages(t, 8, []string{"sic_decode"}))
	if reflect.DeepEqual(a.Stages, b.Stages) {
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
		if s.AllocsPerOp < 0 || s.BytesPerOp < 0 {
			t.Errorf("%s: alloc probe did not run: allocs=%f bytes=%f", s.Name, s.AllocsPerOp, s.BytesPerOp)
		}
	}
}

// TestBaselineCoversStages pins the committed baseline to the stage list:
// same names, same order, every stage alloc-probed. A stage added, dropped
// or renamed without the matching baseline edit fails here before it fails
// the CI gate.
func TestBaselineCoversStages(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range base.Stages {
		names = append(names, s.Name)
		if s.AllocsPerOp < 0 {
			t.Errorf("baseline %s: allocs_per_op = %f, want >= 0", s.Name, s.AllocsPerOp)
		}
	}
	if want := StageNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("baseline stages = %v\nharness stages  = %v", names, want)
	}
	if len(names) != 9 {
		t.Errorf("baseline lists %d stages, want 9", len(names))
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
// slowdown must gate on every stage, and Failures() must carry each.
func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	base := runQuick(t, 1)
	cur := slowdown(base, 2)

	cmp, err := Compare(base, cur, 0, cheapStages)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, n := range cheapStages {
		want = append(want, n+"/ns_per_sample regressed")
	}
	if got := cmp.Failures(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Failures() = %v, want %v\n%s", got, want, cmp.Render())
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	rep := runQuick(t, 1)
	cmp, err := Compare(rep, rep, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fails := cmp.Failures(); len(fails) > 0 {
		t.Fatalf("self-comparison failed the gate: %v\n%s", fails, cmp.Render())
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
				Name: "edge_decode", Iters: 6, SamplesPerIter: 1000,
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
			cmp, err := Compare(base, tc.cur, 0, nil)
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
			Name: "x", Iters: 1, SamplesPerIter: 10, WallNs: wall, NsPerSample: ns,
		}}}
	}
	cmp, err := Compare(mk(1000, 1), mk(1000, 50), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := cmp.Deltas[0].Verdict; v != Skipped {
		t.Fatalf("sub-millisecond stage verdict = %s, want skipped", v)
	}
}

// TestCompareFailsOnMissingOrIncomparableStage closes the gate's hole: a
// baseline stage the run no longer produces, or produces over different
// work, is a stage nobody is watching — it fails unless the run's stage
// filter left it out on purpose.
func TestCompareFailsOnMissingOrIncomparableStage(t *testing.T) {
	mk := func(iters int, names ...string) *Report {
		r := &Report{SchemaVersion: SchemaVersion}
		for _, n := range names {
			r.Stages = append(r.Stages, StageResult{Name: n, Iters: iters, SamplesPerIter: 10, WallNs: 10e6, NsPerSample: 100})
		}
		return r
	}
	cases := []struct {
		name      string
		base, cur *Report
		stages    []string
		want      []string
	}{
		{"unfiltered run lost a stage", mk(4, "a", "b"), mk(4, "b"), nil, []string{"a missing"}},
		{"filter left the stage out", mk(4, "a", "b"), mk(4, "b"), []string{"b"}, nil},
		{"filter named the lost stage", mk(4, "a", "b"), mk(4, "b"), []string{"a", "b"}, []string{"a missing"}},
		{"iters drift", mk(4, "a", "b"), mk(8, "a", "b"), nil, []string{"a incomparable", "b incomparable"}},
		{"new stage is only a note", mk(4, "b"), mk(4, "b", "c"), nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp, err := Compare(tc.base, tc.cur, 0, tc.stages)
			if err != nil {
				t.Fatal(err)
			}
			if got := cmp.Failures(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Failures() = %v, want %v\n%s", got, tc.want, cmp.Render())
			}
		})
	}
}

// TestCompareIncomparableIdentity: the other identity field — a workload
// whose size changed gets no ratio, and gates.
func TestCompareIncomparableIdentity(t *testing.T) {
	mk := func(samples int) *Report {
		return &Report{SchemaVersion: SchemaVersion, Stages: []StageResult{{
			Name: "x", Iters: 4, SamplesPerIter: samples, WallNs: 10e6, NsPerSample: 100,
		}}}
	}
	cmp, err := Compare(mk(10), mk(20), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Deltas) != 1 || cmp.Deltas[0].Verdict != Incomparable || cmp.Deltas[0].Ratio != 0 {
		t.Fatalf("identity mismatch deltas = %+v, want one incomparable without a ratio", cmp.Deltas)
	}
	if len(cmp.Failures()) != 1 {
		t.Errorf("Failures() = %v, want the incomparable stage", cmp.Failures())
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	a := &Report{SchemaVersion: SchemaVersion}
	b := &Report{SchemaVersion: SchemaVersion + 1}
	if _, err := Compare(a, b, 0, nil); err == nil {
		t.Fatal("schema version mismatch should error")
	}
}

func TestCompareCoverageDrift(t *testing.T) {
	mk := func(names ...string) *Report {
		r := &Report{SchemaVersion: SchemaVersion}
		for _, n := range names {
			r.Stages = append(r.Stages, StageResult{Name: n, Iters: 1, SamplesPerIter: 1, WallNs: 10e6, NsPerSample: 1})
		}
		return r
	}
	cmp, err := Compare(mk("a", "b"), mk("b", "c"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmp.NewStages, []string{"c"}) {
		t.Errorf("NewStages = %v, want [c]", cmp.NewStages)
	}
	if !reflect.DeepEqual(cmp.MissingStages, []string{"a"}) {
		t.Errorf("MissingStages = %v, want [a]", cmp.MissingStages)
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
			Name: "x", Iters: 2, SamplesPerIter: 10, FramesTotal: 5,
			WallNs: 123, NsPerOp: 4, NsPerSample: 5, SamplesPerSec: 6, FramesPerSec: 7,
			AllocsPerOp: 8, BytesPerOp: 9,
			SubStages: []SubStage{{Name: "sub", Count: 3, WallNs: 99}},
		}},
	}
	c := Canonical(r)
	j, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"wall_ns", "ns_per_op", "ns_per_sample", "per_sec", "allocs_per_op", "bytes_per_op"} {
		if strings.Contains(string(j), banned) {
			t.Errorf("canonical JSON still carries %q: %s", banned, j)
		}
	}
	if c.Stages[0].SubStages[0].Count != 3 {
		t.Error("canonical dropped sub-stage identity")
	}
}
