package perf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Verdict classifies one metric's movement between baseline and current.
type Verdict string

const (
	// Regressed: the metric moved in the bad direction past the threshold.
	Regressed Verdict = "regressed"
	// Improved: moved in the good direction past the threshold.
	Improved Verdict = "improved"
	// Unchanged: within the noise band.
	Unchanged Verdict = "unchanged"
	// Skipped: below the minimum-signal floor (too fast to trust a ratio).
	Skipped Verdict = "skipped"
	// Incomparable: workload identity differs (seed, iters, samples) — a
	// ratio would compare different work, so no verdict is issued.
	Incomparable Verdict = "incomparable"
)

// Delta is one compared metric of one stage.
type Delta struct {
	Stage  string  `json:"stage"`
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"cur"`
	// Ratio is Cur/Base (1.0 = unchanged). 0 when incomparable/skipped.
	Ratio   float64 `json:"ratio"`
	Verdict Verdict `json:"verdict"`
	Note    string  `json:"note,omitempty"`
}

// Comparison is the full result of comparing a current report against a
// baseline.
type Comparison struct {
	Deltas []Delta `json:"deltas"`
	// NewStages ran without a baseline entry: a printed note, not a
	// failure (the next baseline refresh picks them up).
	NewStages []string `json:"new_stages,omitempty"`
	// MissingStages have a baseline entry but did not run although the
	// run's stage filter admitted them — a deleted or renamed stage. They
	// fail the gate: an orphaned baseline is a stage nobody watches.
	MissingStages []string `json:"missing_stages,omitempty"`
	// EnvMismatch notes baseline and current came from different
	// GOOS/GOARCH/CPU-count environments; ratios still computed, trust
	// accordingly.
	EnvMismatch string `json:"env_mismatch,omitempty"`
}

// The noise model. The relative threshold is the caller's (hardware
// differs between baseline and run); the two floors are properties of the
// harness, not of a deployment.
const (
	// defaultThreshold is the relative change that counts as movement: a
	// metric regresses when cur > base*(1+threshold). Wide on purpose —
	// micro-benchmark noise between unrelated commits on shared CI runners
	// routinely reaches ±20%. CI uses 2.0 because its baseline comes from
	// different hardware.
	defaultThreshold = 0.35
	// minWallNs is the minimum stage wall time (in both runs) for
	// time-derived ratios to be trusted; below it the stage's timing delta
	// is Skipped.
	minWallNs = 1e6
	// allocSlack is the absolute allocs/op increase tolerated before the
	// allocs metric can regress (guards integer-ish metrics where +1 alloc
	// on a 2-alloc baseline is a 50% "regression").
	allocSlack = 2
)

// Compare evaluates cur against base stage by stage. Gating metrics are
// ns_per_sample (the paper's per-sample budget) and allocs_per_op; both are
// "lower is better". Throughput moves inversely and is reported via the
// same ns_per_sample delta rather than double-counted. threshold ≤ 0 means
// defaultThreshold. stages is the filter cur was run with (Options.Stages):
// empty means every baseline stage is expected in cur, otherwise only the
// named ones are.
func Compare(base, cur *Report, threshold float64, stages []string) (*Comparison, error) {
	if base.SchemaVersion != cur.SchemaVersion {
		return nil, fmt.Errorf("perf: schema mismatch: baseline v%d vs current v%d", base.SchemaVersion, cur.SchemaVersion)
	}
	if threshold <= 0 {
		threshold = defaultThreshold
	}

	cmp := &Comparison{}
	if base.Env != cur.Env {
		cmp.EnvMismatch = fmt.Sprintf("baseline %s/%s %dcpu go %s vs current %s/%s %dcpu go %s",
			base.Env.GOOS, base.Env.GOARCH, base.Env.NumCPU, base.Env.GoVersion,
			cur.Env.GOOS, cur.Env.GOARCH, cur.Env.NumCPU, cur.Env.GoVersion)
	}

	baseBy := map[string]*StageResult{}
	for i := range base.Stages {
		baseBy[base.Stages[i].Name] = &base.Stages[i]
	}
	seen := map[string]bool{}
	for i := range cur.Stages {
		c := &cur.Stages[i]
		seen[c.Name] = true
		b, ok := baseBy[c.Name]
		if !ok {
			cmp.NewStages = append(cmp.NewStages, c.Name)
			continue
		}
		cmp.Deltas = append(cmp.Deltas, compareStage(b, c, threshold)...)
	}
	for name := range baseBy {
		if !seen[name] && (len(stages) == 0 || slices.Contains(stages, name)) {
			cmp.MissingStages = append(cmp.MissingStages, name)
		}
	}
	sort.Strings(cmp.NewStages)
	sort.Strings(cmp.MissingStages)
	return cmp, nil
}

// compareStage emits this stage's deltas: ns_per_sample and allocs_per_op,
// or one Incomparable delta when the two runs did different work.
func compareStage(b, c *StageResult, threshold float64) []Delta {
	// Identity gate: a ratio over different workloads is meaningless, and
	// the stage goes unwatched until the baseline is regenerated — so it
	// fails rather than passing silently.
	if b.Iters != c.Iters || b.SamplesPerIter != c.SamplesPerIter {
		return []Delta{{
			Stage: c.Name, Metric: "ns_per_sample",
			Base: b.NsPerSample, Cur: c.NsPerSample,
			Verdict: Incomparable,
			Note: fmt.Sprintf("workload identity differs: iters %d→%d, samples/iter %d→%d",
				b.Iters, c.Iters, b.SamplesPerIter, c.SamplesPerIter),
		}}
	}

	d := Delta{
		Stage: c.Name, Metric: "ns_per_sample",
		Base: b.NsPerSample, Cur: c.NsPerSample,
	}
	switch {
	case b.WallNs < minWallNs || c.WallNs < minWallNs:
		d.Verdict = Skipped
		d.Note = fmt.Sprintf("wall < %dms floor", int64(minWallNs/1e6))
	case b.NsPerSample <= 0:
		d.Verdict = Skipped
		d.Note = "no baseline signal"
	default:
		d.Ratio = c.NsPerSample / b.NsPerSample
		d.Verdict = classify(d.Ratio, threshold)
	}

	a := Delta{
		Stage: c.Name, Metric: "allocs_per_op",
		Base: b.AllocsPerOp, Cur: c.AllocsPerOp,
	}
	switch {
	case c.AllocsPerOp <= b.AllocsPerOp+allocSlack:
		if b.AllocsPerOp > 0 {
			a.Ratio = c.AllocsPerOp / b.AllocsPerOp
		}
		if b.AllocsPerOp-c.AllocsPerOp > allocSlack {
			a.Verdict = Improved
		} else {
			a.Verdict = Unchanged
		}
	case b.AllocsPerOp <= 0:
		a.Verdict = Regressed
		a.Note = "allocs appeared on an alloc-free baseline"
	default:
		a.Ratio = c.AllocsPerOp / b.AllocsPerOp
		a.Verdict = classify(a.Ratio, threshold)
	}
	return []Delta{d, a}
}

// classify maps a lower-is-better ratio to a verdict.
func classify(ratio, rel float64) Verdict {
	switch {
	case ratio > 1+rel:
		return Regressed
	case ratio < 1/(1+rel):
		return Improved
	default:
		return Unchanged
	}
}

// Failures names everything that fails the gate, one entry each: a
// Regressed metric, an Incomparable stage, and a baseline stage missing
// from the run. Every stage gates; an empty result is a pass.
func (c *Comparison) Failures() []string {
	var out []string
	for _, d := range c.Deltas {
		switch d.Verdict {
		case Regressed:
			out = append(out, fmt.Sprintf("%s/%s regressed", d.Stage, d.Metric))
		case Incomparable:
			out = append(out, d.Stage+" incomparable")
		}
	}
	for _, n := range c.MissingStages {
		out = append(out, n+" missing")
	}
	return out
}

// Render formats the comparison as an aligned text table.
func (c *Comparison) Render() string {
	var sb strings.Builder
	if c.EnvMismatch != "" {
		fmt.Fprintf(&sb, "WARNING: environment mismatch (%s)\n", c.EnvMismatch)
	}
	fmt.Fprintf(&sb, "%-18s %-14s %12s %12s %8s  %s\n", "STAGE", "METRIC", "BASE", "CURRENT", "RATIO", "VERDICT")
	for _, d := range c.Deltas {
		ratio := "-"
		if d.Ratio > 0 {
			ratio = fmt.Sprintf("%.3f", d.Ratio)
		}
		verdict := string(d.Verdict)
		if d.Note != "" {
			verdict += " (" + d.Note + ")"
		}
		fmt.Fprintf(&sb, "%-18s %-14s %12.2f %12.2f %8s  %s\n", d.Stage, d.Metric, d.Base, d.Cur, ratio, verdict)
	}
	for _, n := range c.NewStages {
		fmt.Fprintf(&sb, "new stage (no baseline): %s\n", n)
	}
	for _, n := range c.MissingStages {
		fmt.Fprintf(&sb, "stage missing from current run: %s\n", n)
	}
	return sb.String()
}
