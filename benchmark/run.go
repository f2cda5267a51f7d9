package main

import (
	"fmt"
	"time"
)

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in print order.
// BENCHMARK.json fixes how far each may worsen; names_test.go keeps the two
// lists identical. op_fail_ratio is reported through the result line's
// failed/attempted counts instead: it is 0 on a healthy run, and a gated
// metric may never be 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"e2e_msps", "Msps"},
	{"cpu_s_per_msample", "s/Msample"},
	{"seg_latency_p50_ms", "ms"},
	{"frame_recovery_ratio", "ratio"},
	{"wire_bytes_per_sample", "B/sample"},
	{"alloc_mb_per_msample", "MB/Msample"},
}

// result is one run of one workload.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Traced   bool              `json:"traced"`
	Correct  bool              `json:"correct"`
	Verdict  verdict           `json:"verdict"`
	Metrics  map[string]metric `json:"metrics"`
	Notes    []string          `json:"notes,omitempty"` // what a person reading the run wants beside the metrics
	Spans    []span            `json:"spans,omitempty"` // traced runs: every span recorded
	defs     []metricDef       // print order of Metrics
}

func setMetrics(r *result, defs []metricDef, values map[string]float64) {
	r.defs = defs
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

func note(r *result, format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds float64
	smoke   bool   // the test-sized pass: one block, one set-up, no warm-up, no paced phase
	tmp     string // scratch root for WAL directories
}

// setupRounds is how often a run sets up; setup_s is the median.
const setupRounds = 3

// sizes returns the run's fixed work.
func (o options) sizes(w *workload) (capacityN, pacedN, rounds int) {
	if o.smoke {
		return 1, 0, 1
	}
	return w.capacityBlocks(o.seconds), w.pacedBlocks(o.seconds), setupRounds
}

// setUp generates the inputs, builds the system and, unless smoke, passes
// one warm-up block through the whole path (FFT plans, decoder pool, first
// session).
func setUp(w *workload, o options, nblocks int) (*deployment, verdict, error) {
	d, err := deploy(w, o.seed, nblocks, o.tmp)
	if err != nil {
		return nil, verdict{}, err
	}
	if o.smoke {
		return d, verdict{}, nil
	}
	return d, d.session(1, 0).verdict, nil
}

// runWorkload is the untraced run: set-up (several times, the last one
// kept), the closed-loop capacity phase, then the paced phase over the same
// blocks, all scored against ground truth.
func runWorkload(w *workload, o options) (*result, error) {
	capacityN, pacedN, rounds := o.sizes(w)
	nblocks := max(capacityN, pacedN)
	var (
		d      *deployment
		warm   verdict
		setupS []float64
	)
	for r := 0; r < rounds; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if d, warm, err = setUp(w, o, nblocks); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	capacity := d.session(capacityN, 0)
	res := &result{Workload: w.name, Seed: o.seed}
	res.Verdict = capacity.verdict
	// The smoke pass has no paced phase; its one closed-loop block, timed
	// from the moment it was offered, stands in.
	paced := sessionResult{latMs: capacity.latMs}
	if pacedN > 0 {
		paced = d.session(pacedN, w.period)
		res.Verdict = sumVerdicts(res.Verdict, paced.verdict)
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	samples := float64(capacity.samples+paced.samples) / 1e6
	capMs := float64(capacity.samples) / 1e6
	if len(paced.latMs) == 0 {
		res.Verdict.Problems = append(res.Verdict.Problems, "paced phase produced no report to time")
	}
	setMetrics(res, endToEnd, map[string]float64{
		"setup_s":               median(setupS),
		"e2e_msps":              capMs / capacity.wall.Seconds(),
		"cpu_s_per_msample":     capacity.cpuS / capMs,
		"seg_latency_p50_ms":    median(paced.latMs),
		"frame_recovery_ratio":  res.Verdict.recoveryRatio(),
		"wire_bytes_per_sample": float64(capacity.count.WireBytes+paced.count.WireBytes) / (samples * 1e6),
		"alloc_mb_per_msample":  float64(capacity.allocB) / 1e6 / capMs,
	})
	res.Verdict = withWarmUp(res.Verdict, warm)
	res.Correct = res.Verdict.correct()

	note(res, "capacity: %d blocks x %d gateways closed loop, %.2f Msamples in %.2f s (%.2f s CPU); real-time factor %.2f at 1 Msps",
		capacityN, len(d.gws), capMs, capacity.wall.Seconds(), capacity.cpuS, capMs/capacity.wall.Seconds())
	tail := "too few reports for a tail percentile"
	if p, ok := tailPercentile(len(paced.latMs)); ok {
		tail = fmt.Sprintf("p%g %.1f ms", p, percentile(paced.latMs, p))
	}
	note(res, "paced: %d blocks x %d gateways at %v/block, %d reports timed, %s; generator late p50 %.3f ms max %.3f ms",
		pacedN, len(d.gws), w.period, len(paced.latMs), tail, median(paced.lateMs), percentile(paced.lateMs, 100))
	note(res, "set-up rounds: %.3f s", setupS)
	note(res, "segments: %d detected, %d resolved at the edge, %d shipped; frames %d cloud + %d edge of %d sent; op_fail_ratio %.4f (%d of %d)",
		capacity.count.Detections+paced.count.Detections, capacity.count.Resolved+paced.count.Resolved, capacity.count.Shipped+paced.count.Shipped,
		res.Verdict.CloudFrame, res.Verdict.EdgeFrames, res.Verdict.Packets, res.Verdict.opFailRatio(), res.Verdict.Failed, res.Verdict.Ops)
	return res, nil
}
