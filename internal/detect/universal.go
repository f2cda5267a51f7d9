// Package detect implements the GalioT gateway's packet detection (paper
// Sec. 4): the universal preamble — a single correlation template built by
// coalescing the preambles of all supported technologies and summing one
// representative per group — together with the two baselines the paper
// compares against (energy-threshold detection and the "optimal"
// per-technology matched-filter bank), plus segment extraction for
// shipping detections to the cloud.
package detect

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/phy"
)

// Group records one coalescing class in the universal preamble: the member
// technologies whose preambles correlate strongly, and which member's
// preamble waveform was chosen to represent them.
type Group struct {
	Members        []string
	Representative string
}

// Universal is the universal-preamble template for a set of technologies.
type Universal struct {
	Template []complex128 // the summed, padded preamble template
	Groups   []Group      // coalescing structure (paper Sec. 4, step 1)
	fs       float64
}

// correlationBetween returns the peak normalized correlation between two
// preamble waveforms (the shorter slid across the longer).
func correlationBetween(a, b []complex128) float64 {
	long, short := a, b
	if len(short) > len(long) {
		long, short = short, long
	}
	m := dsp.NormalizedCorrelate(long, short)
	return dsp.MaxPeak(m).Value
}

// coalesceThreshold is the peak-correlation level above which two
// technologies' preambles are considered "common" and share a
// representative. Orthogonal modulations correlate near 1/√N; identical
// preamble structures correlate near 1.
const coalesceThreshold = 0.6

// BuildUniversal constructs the universal preamble for the given
// technologies at sample rate fs, following the paper's two steps:
// (1) coalesce technologies whose preambles are common and pick the
// shortest member as the group representative; (2) sum the representative
// waveforms, zero-padded at the end to the maximum representative length.
// The template is normalized to unit average power.
func BuildUniversal(techs []phy.Technology, fs float64) (*Universal, error) {
	if len(techs) == 0 {
		return nil, fmt.Errorf("detect: no technologies")
	}
	pres := make([][]complex128, len(techs))
	for i, t := range techs {
		pres[i] = t.Preamble(fs)
		if len(pres[i]) == 0 {
			return nil, fmt.Errorf("detect: technology %s has empty preamble", t.Name())
		}
	}
	// Union-find over the correlation graph.
	parent := make([]int, len(techs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i := 0; i < len(techs); i++ {
		for j := i + 1; j < len(techs); j++ {
			if correlationBetween(pres[i], pres[j]) >= coalesceThreshold {
				parent[find(j)] = find(i)
			}
		}
	}
	groupIdx := map[int][]int{}
	for i := range techs {
		r := find(i)
		groupIdx[r] = append(groupIdx[r], i)
	}
	// Collect group representatives in ascending index order (avoiding
	// map-iteration order): a union-find root is its own parent.
	roots := make([]int, 0, len(groupIdx))
	for i := range techs {
		if find(i) == i {
			roots = append(roots, i)
		}
	}

	maxLen := 0
	var groups []Group
	var reps [][]complex128
	for _, r := range roots {
		members := groupIdx[r]
		// shortest preamble represents the group
		best := members[0]
		for _, m := range members[1:] {
			if len(pres[m]) < len(pres[best]) {
				best = m
			}
		}
		g := Group{Representative: techs[best].Name()}
		for _, m := range members {
			g.Members = append(g.Members, techs[m].Name())
		}
		sort.Strings(g.Members)
		groups = append(groups, g)
		reps = append(reps, pres[best])
		if len(pres[best]) > maxLen {
			maxLen = len(pres[best])
		}
	}
	tmpl := make([]complex128, maxLen)
	for _, rep := range reps {
		dsp.Add(tmpl, rep, 0)
	}
	dsp.Normalize(tmpl)
	return &Universal{Template: tmpl, Groups: groups, fs: fs}, nil
}

// Detection is one packet-detection event.
type Detection struct {
	Index int     // sample index of the event (approximate packet start)
	Score float64 // detector metric value at the event
}

// Detector is the common interface of the three detection strategies.
type Detector interface {
	// Name identifies the strategy ("energy", "universal", "matched").
	Name() string
	// Metric returns the per-lag detection metric for a capture window.
	Metric(rx []complex128) []float64
	// Detect thresholds the metric and returns detection events.
	Detect(rx []complex128) []Detection
}

// detectWith applies threshold + non-maximum suppression shared by the
// correlation detectors.
func detectWith(metric []float64, threshold float64, minGap int) []Detection {
	peaks := dsp.FindPeaks(metric, threshold, minGap)
	out := make([]Detection, len(peaks))
	for i, p := range peaks {
		out[i] = Detection{Index: p.Index, Score: p.Value}
	}
	return out
}

// UniversalDetector correlates captures against the universal preamble.
type UniversalDetector struct {
	U         *Universal
	Threshold float64 // normalized correlation threshold
	// Chunk > 0 splits the template into chunks of that many samples and
	// sums correlation magnitudes non-coherently, trading a little
	// sensitivity for robustness to carrier frequency offset. Chunk == 0
	// correlates coherently with the full template (the paper's setting:
	// AWGN only, no CFO).
	Chunk int
}

// NewUniversal builds the universal preamble for techs and wraps it in a
// detector with the given threshold.
func NewUniversal(techs []phy.Technology, fs, threshold float64) (*UniversalDetector, error) {
	u, err := BuildUniversal(techs, fs)
	if err != nil {
		return nil, err
	}
	return &UniversalDetector{U: u, Threshold: threshold}, nil
}

// Name implements Detector.
func (d *UniversalDetector) Name() string { return "universal" }

// Metric implements Detector.
func (d *UniversalDetector) Metric(rx []complex128) []float64 {
	if d.Chunk <= 0 || d.Chunk >= len(d.U.Template) {
		return dsp.NormalizedCorrelate(rx, d.U.Template)
	}
	return chunkedMetric(rx, d.U.Template, d.Chunk)
}

// Detect implements Detector. Peaks closer than one template length are
// suppressed.
func (d *UniversalDetector) Detect(rx []complex128) []Detection {
	return detectWith(d.Metric(rx), d.Threshold, len(d.U.Template))
}

// chunkedMetric computes the mean of per-chunk normalized correlation
// magnitudes, aligned to the template start (non-coherent integration).
func chunkedMetric(rx, tmpl []complex128, chunk int) []float64 {
	n := len(rx) - len(tmpl) + 1
	if n <= 0 {
		return nil
	}
	acc := make([]float64, n)
	count := 0
	for off := 0; off+chunk <= len(tmpl); off += chunk {
		m := dsp.NormalizedCorrelate(rx[off:], tmpl[off:off+chunk])
		for i := 0; i < n && i < len(m); i++ {
			acc[i] += m[i]
		}
		count++
	}
	if count == 0 {
		return dsp.NormalizedCorrelate(rx, tmpl)
	}
	inv := 1 / float64(count)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// MatchedBank is the paper's "optimal" baseline: one matched filter per
// technology preamble, with the per-lag metric being the maximum across
// technologies. Its cost grows linearly with the number of technologies —
// the scaling problem the universal preamble removes.
type MatchedBank struct {
	Techs     []phy.Technology
	Threshold float64
	templates [][]complex128
	gap       int // non-maximum suppression distance: the shortest preamble
}

// NewMatchedBank builds the per-technology matched filter bank.
func NewMatchedBank(techs []phy.Technology, fs, threshold float64) *MatchedBank {
	b := &MatchedBank{Techs: techs, Threshold: threshold}
	for _, t := range techs {
		p := t.Preamble(fs)
		b.templates = append(b.templates, p)
		if b.gap == 0 || len(p) < b.gap {
			b.gap = len(p)
		}
	}
	return b
}

// Name implements Detector.
func (b *MatchedBank) Name() string { return "matched" }

// Metric implements Detector: max over technologies of the per-tech
// normalized correlation.
func (b *MatchedBank) Metric(rx []complex128) []float64 {
	var out []float64
	for _, m := range dsp.NormalizedCorrelateAll(rx, b.templates...) {
		if out == nil {
			out = m
			continue
		}
		for i := range m {
			if i < len(out) && m[i] > out[i] {
				out[i] = m[i]
			}
		}
	}
	return out
}

// Detect implements Detector.
func (b *MatchedBank) Detect(rx []complex128) []Detection {
	return detectWith(b.Metric(rx), b.Threshold, b.gap)
}

// EnergyDetector is the paper's weak baseline: a sliding-window energy
// threshold relative to the estimated noise floor. It fails once signals
// drop below the noise, which is exactly the regime low-power IoT inhabits.
type EnergyDetector struct {
	Window      int     // sliding window length in samples
	ThresholdDB float64 // required ratio above the noise floor, in dB
}

// NewEnergy returns an energy detector with the given window and dB
// threshold over the noise floor.
func NewEnergy(window int, thresholdDB float64) *EnergyDetector {
	if window < 8 {
		window = 8
	}
	return &EnergyDetector{Window: window, ThresholdDB: thresholdDB}
}

// Name implements Detector.
func (d *EnergyDetector) Name() string { return "energy" }

// Metric implements Detector: the sliding mean power in dB relative to the
// capture's median power (a robust noise-floor estimate).
func (d *EnergyDetector) Metric(rx []complex128) []float64 {
	if len(rx) < d.Window {
		return nil
	}
	powers := dsp.AbsSq(rx)
	avg := dsp.MovingAverage(powers, d.Window)
	floor := medianOf(avg)
	if floor <= 0 {
		floor = 1e-30
	}
	out := make([]float64, len(avg))
	for i, v := range avg {
		if v <= 0 {
			out[i] = -300
			continue
		}
		out[i] = 10 * math.Log10(v/floor)
	}
	return out
}

// Detect implements Detector: rising-edge crossings of the dB threshold at
// least one window after the previous burst ended.
func (d *EnergyDetector) Detect(rx []complex128) []Detection {
	metric := d.Metric(rx)
	var out []Detection
	inBurst := false
	lastEnd := -d.Window
	for i, v := range metric {
		if !inBurst && v >= d.ThresholdDB && i-lastEnd >= d.Window {
			out = append(out, Detection{Index: i, Score: v})
			inBurst = true
		} else if inBurst && v < d.ThresholdDB {
			inBurst = false
			lastEnd = i
		}
	}
	return out
}

func medianOf(v []float64) float64 {
	c := make([]float64, len(v))
	copy(c, v)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	return c[len(c)/2]
}
