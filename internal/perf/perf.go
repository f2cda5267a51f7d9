// Package perf is the per-sample micro-stage gate of the GalioT pipeline:
// it replays seeded, deterministic workloads through the single-goroutine
// pipeline stages (detect stream, edge decode, backhaul codec, SIC, each
// kill filter) and emits one structured Report per run — per-stage wall
// time, ns/sample, throughput and allocations per op. cmd/galiot-bench is
// the command front; Compare (compare.go) turns two Reports into a
// regression verdict in which every stage gates; DESIGN.md §12 documents
// the schema and policy. End-to-end questions (concurrency, the wire, the
// farm) belong to benchmark/, not here.
//
// Determinism contract: for a fixed Options.Seed, everything in a Report
// except the timing-derived measurements (wall ns, ns/op, throughput,
// allocation counts) is identical run to run — workloads come from
// repro/internal/rng, iteration counts are fixed per stage rather than
// adaptive, and no wall-clock value enters workload identity. Canonical
// (canonical.go) extracts exactly that deterministic skeleton;
// TestRunDeterministic holds the package to it.
package perf

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/cancel"
	"repro/internal/obs"
)

// SchemaVersion identifies the Report JSON layout. Bump on any
// field-meaning change so comparators can refuse mismatched baselines.
const SchemaVersion = 1

// Env records where a report was produced. Comparisons across differing
// environments are legal but rendered with a warning — ns/op from a
// laptop and a CI runner are different units in practice.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// SubStage aggregates one traced inner stage (SIC rounds, kill-filter
// invocations) across a stage's iterations: how many times it ran and the
// wall nanoseconds it consumed in total.
type SubStage struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	WallNs int64  `json:"wall_ns"`
}

// StageResult is one pipeline stage's measurements. Identity fields
// (Name, Iters, SamplesPerIter, FramesTotal, DecodeStats, SubStage
// names+counts) are deterministic under a fixed seed; the rest are
// measurements of this particular run.
type StageResult struct {
	Name string `json:"name"`
	// Iters is the fixed iteration count the stage ran (never adaptive —
	// adaptive counts would make workload identity depend on host speed).
	Iters int `json:"iters"`
	// SamplesPerIter is the I/Q samples one iteration consumes.
	SamplesPerIter int `json:"samples_per_iter"`
	// FramesTotal counts frames (or segments, for detect) produced across
	// all iterations — a determinism identity field and the numerator of
	// FramesPerSec.
	FramesTotal int `json:"frames_total"`

	WallNs        int64   `json:"wall_ns"`
	NsPerOp       float64 `json:"ns_per_op"`
	NsPerSample   float64 `json:"ns_per_sample"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	FramesPerSec  float64 `json:"frames_per_sec"`

	// AllocsPerOp/BytesPerOp come from a testing.AllocsPerRun-style probe
	// (alloc.go).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// SubStages aggregates traced inner stages across iterations (SIC
	// rounds, kill filters), sorted by name.
	SubStages []SubStage `json:"sub_stages,omitempty"`
	// DecodeStats accumulates cancel.Stats over all iterations for stages
	// that decode.
	DecodeStats *cancel.Stats `json:"decode_stats,omitempty"`
}

// Report is one galiot-bench run. It deliberately carries no timestamp:
// the report must be byte-comparable across runs (minus measurements), so
// "when" lives in the filename or CI metadata, never in the schema.
type Report struct {
	SchemaVersion int           `json:"schema_version"`
	Seed          uint64        `json:"seed"`
	Quick         bool          `json:"quick"`
	Env           Env           `json:"env"`
	Stages        []StageResult `json:"stages"`
}

// Options configures Run.
type Options struct {
	// Seed roots every workload generator. Same seed, same workloads.
	Seed uint64
	// Quick shrinks workloads and iteration counts for CI gating (~seconds
	// instead of minutes).
	Quick bool
	// Clock supplies wall-clock nanoseconds (inject time.Now().UnixNano —
	// the package itself never reads the wall clock, per the repository's
	// determinism rules). Required.
	Clock func() int64
	// Stages filters which stages run (by name); empty runs all.
	Stages []string
	// ProfileDir, when non-empty, receives per-stage CPU and heap profiles
	// (<stage>.cpu.pb.gz, <stage>.heap.pb.gz).
	ProfileDir string
}

// StageNames lists every stage Run knows, in execution order.
func StageNames() []string {
	defs := stageDefs()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

// Run executes the harness and returns the report.
func Run(opts Options) (*Report, error) {
	if opts.Clock == nil {
		return nil, fmt.Errorf("perf: Options.Clock is required")
	}
	want := make(map[string]bool, len(opts.Stages))
	for _, n := range opts.Stages {
		want[n] = true
	}

	rep := &Report{
		SchemaVersion: SchemaVersion,
		Seed:          opts.Seed,
		Quick:         opts.Quick,
		Env: Env{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}

	bench := &workbench{opts: opts}
	for _, def := range stageDefs() {
		if len(want) > 0 && !want[def.name] {
			continue
		}
		res, err := runStage(bench, def)
		if err != nil {
			return nil, fmt.Errorf("perf: stage %s: %w", def.name, err)
		}
		rep.Stages = append(rep.Stages, res)
	}
	return rep, nil
}

// runStage builds one stage's workload, probes allocations, runs the timed
// loop (optionally under a CPU profile) and assembles the result.
func runStage(b *workbench, def stageDef) (StageResult, error) {
	r, err := def.build(b)
	if err != nil {
		return StageResult{}, err
	}
	iters := def.fullIters
	if b.opts.Quick {
		iters = def.quickIters
	}

	// Warm up: one untimed iteration settles lazy initialization (FFT
	// plans, pooled buffers) so neither the alloc probe nor the timed loop
	// measures first-call costs.
	r.run()

	allocs, bytes := allocsPerRun(allocProbeRuns, func() { r.run() })

	// Sub-stage traces and decode stats restart here so they cover exactly
	// the timed iterations, not warmup or probe runs.
	if r.trace != nil {
		r.trace.reset(b.opts.Clock)
	}
	if r.stats != nil {
		*r.stats = cancel.Stats{}
	}
	stop, err := startStageProfile(b.opts.ProfileDir, def.name)
	if err != nil {
		return StageResult{}, err
	}
	frames := 0
	start := b.opts.Clock()
	for i := 0; i < iters; i++ {
		frames += r.run()
	}
	wall := b.opts.Clock() - start
	if err := stop(); err != nil {
		return StageResult{}, err
	}
	if wall < 1 {
		wall = 1 // a clock too coarse for the stage: avoid divide-by-zero
	}

	res := StageResult{
		Name:           def.name,
		Iters:          iters,
		SamplesPerIter: r.samplesPerIter,
		FramesTotal:    frames,
		WallNs:         wall,
		NsPerOp:        float64(wall) / float64(iters),
		AllocsPerOp:    allocs,
		BytesPerOp:     bytes,
	}
	totalSamples := float64(r.samplesPerIter) * float64(iters)
	if totalSamples > 0 {
		res.NsPerSample = float64(wall) / totalSamples
		res.SamplesPerSec = totalSamples / float64(wall) * 1e9
	}
	res.FramesPerSec = float64(frames) / float64(wall) * 1e9
	if r.stats != nil {
		st := *r.stats
		res.DecodeStats = &st
	}
	if r.trace != nil {
		res.SubStages = r.trace.subStages()
	}
	return res, nil
}

// reset installs a fresh tracer on clock whose finished spans fold into
// the box, dropping whatever an earlier run folded.
func (b *traceBox) reset(clock func() int64) {
	b.agg = map[string]*SubStage{}
	b.names = nil
	b.t = obs.NewTracer()
	b.t.SetClock(clock)
	b.t.SetSink(b.fold)
}

// fold is the tracer's sink: it adds one finished span's stages to the
// per-name invocation counts and total wall time.
func (b *traceBox) fold(sn obs.SpanSnapshot) {
	for _, st := range sn.Stages {
		s := b.agg[st.Name]
		if s == nil {
			s = &SubStage{Name: st.Name}
			b.agg[st.Name] = s
			b.names = append(b.names, st.Name)
		}
		s.Count++
		s.WallNs += st.Dur
	}
}

// subStages returns the folded stages sorted by name.
func (b *traceBox) subStages() []SubStage {
	sort.Strings(b.names)
	out := make([]SubStage, len(b.names))
	for i, n := range b.names {
		out[i] = *b.agg[n]
	}
	return out
}
