package perf

import "repro/internal/cancel"

// CanonicalStage is the deterministic skeleton of one StageResult: the
// workload-identity fields that must be byte-identical between two runs
// with the same seed, with every timing-derived measurement removed.
type CanonicalStage struct {
	Name           string         `json:"name"`
	Iters          int            `json:"iters"`
	SamplesPerIter int            `json:"samples_per_iter"`
	FramesTotal    int            `json:"frames_total"`
	SubStages      []CanonicalSub `json:"sub_stages,omitempty"`
	DecodeStats    *cancel.Stats  `json:"decode_stats,omitempty"`
}

// CanonicalSub keeps a sub-stage's identity (how many times it ran) and
// drops its wall time.
type CanonicalSub struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// CanonicalReport is the deterministic projection of a Report: Env is
// dropped (host-specific) and each stage keeps only its skeleton.
type CanonicalReport struct {
	SchemaVersion int              `json:"schema_version"`
	Seed          uint64           `json:"seed"`
	Quick         bool             `json:"quick"`
	Stages        []CanonicalStage `json:"stages"`
}

// Canonical projects a report onto its deterministic skeleton. Two runs of
// Run with equal Options.Seed/Quick/Stages must produce equal Canonical
// values; TestRunDeterministic enforces this.
func Canonical(r *Report) CanonicalReport {
	c := CanonicalReport{
		SchemaVersion: r.SchemaVersion,
		Seed:          r.Seed,
		Quick:         r.Quick,
	}
	for _, st := range r.Stages {
		cs := CanonicalStage{
			Name:           st.Name,
			Iters:          st.Iters,
			SamplesPerIter: st.SamplesPerIter,
			FramesTotal:    st.FramesTotal,
			DecodeStats:    st.DecodeStats,
		}
		for _, sub := range st.SubStages {
			cs.SubStages = append(cs.SubStages, CanonicalSub{Name: sub.Name, Count: sub.Count})
		}
		c.Stages = append(c.Stages, cs)
	}
	return c
}
