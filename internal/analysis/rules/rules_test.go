package rules_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/rules"
)

func TestNondeterminism(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.Nondeterminism, "nondet/internal/sim")
}

func TestFloatEq(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.FloatEq, "floateq")
}

func TestHotLoopAlloc(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.HotLoopAlloc, "hotalloc/internal/dsp")
}

func TestGoLeak(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.GoLeak, "goleak/internal/worker")
}

func TestErrDrop(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.ErrDrop, "errdrop")
}

func TestObsNames(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.ObsNames, "obsnames/internal/gw")
}

func TestUnguardedStats(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, "testdata/src", rules.UnguardedStats, "unguardedstats", "unguardedstats/calm")
}

func TestMatchScoping(t *testing.T) {
	t.Parallel()
	// Path-scoped analyzers must not fire outside their packages: run the
	// hot-path and nondeterminism rules over the floateq fixture (which is
	// neither an internal/dsp-style path nor internal/) and expect silence.
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join(root, "floateq"))
	if err != nil {
		t.Fatal(err)
	}
	scoped := []*analysis.Analyzer{rules.HotLoopAlloc, rules.Nondeterminism}
	if diags := analysis.Run(scoped, []*analysis.Package{pkg}); len(diags) != 0 {
		t.Fatalf("scoped analyzers fired outside their packages: %v", diags)
	}
}

func TestByName(t *testing.T) {
	t.Parallel()
	picked, ok := rules.ByName([]string{"floateq", "errdrop"})
	if !ok || len(picked) != 2 || picked[0].Name != "floateq" || picked[1].Name != "errdrop" {
		t.Fatalf("ByName(floateq, errdrop) = %v, %v", picked, ok)
	}
	if _, ok := rules.ByName([]string{"nope"}); ok {
		t.Fatal("ByName accepted an unknown rule")
	}
}
