package rules

import "repro/internal/analysis"

// All returns the full galiot-lint rule suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ErrDrop,
		FloatEq,
		GoLeak,
		HotLoopAlloc,
		Nondeterminism,
		ObsNames,
		UnguardedStats,
	}
}

// ByName returns the named analyzers in the given order; ok is false when
// any name is unknown.
func ByName(names []string) ([]*analysis.Analyzer, bool) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
