// Fleet-wide metrics aggregation: many obs registries (decode shards, the
// front) merge into one rollup with a per-target breakdown. Counters sum
// exactly; gauges report labeled min/max/mean/sum; histogram quantiles
// come from merged log-linear sketches (see SketchIndex for the documented
// error bound). galiot-cloud serves the rollup of its sharded plane at
// /fleet/metrics and logs it on shutdown.

package obs

import (
	"sort"
	"sync"
)

// Target is one scrape source of the fleet aggregator.
type Target struct {
	// Name labels the target in per-target breakdowns. Must be unique
	// within a Fleet.
	Name string
	// Fetch produces the target's current snapshot. Called on every
	// Collect; may be invoked concurrently with other targets' Fetch.
	Fetch func() (Snapshot, error)
}

// RegistryTarget wraps an in-process registry as a scrape target.
func RegistryTarget(name string, r *Registry) Target {
	return Target{Name: name, Fetch: func() (Snapshot, error) {
		return r.Snapshot(), nil
	}}
}

// AggCounter is one counter series across the fleet.
type AggCounter struct {
	// Total is the exact sum of the per-target values.
	Total uint64 `json:"total"`
	// PerTarget breaks the sum down by target name (only targets that
	// registered the series appear).
	PerTarget map[string]uint64 `json:"per_target"`
}

// AggGauge is one gauge series across the fleet. Summing gauges is only
// sometimes meaningful (queue depths sum, connectivity flags do not), so
// the rollup keeps the labeled extremes and the mean alongside the sum
// and lets the consumer pick.
type AggGauge struct {
	Min       int64            `json:"min"`
	MinTarget string           `json:"min_target"`
	Max       int64            `json:"max"`
	MaxTarget string           `json:"max_target"`
	Mean      float64          `json:"mean"`
	Sum       int64            `json:"sum"`
	PerTarget map[string]int64 `json:"per_target"`
}

// AggHistogram is one histogram series across the fleet: quantiles over
// the merged sketch (within the documented sketch error), exact per-target
// snapshots for drill-down.
type AggHistogram struct {
	Count  uint64         `json:"count"` // observations ever, summed
	P50    int64          `json:"p50"`   // from the merged sketch
	P99    int64          `json:"p99"`   // from the merged sketch
	Sketch []SketchBucket `json:"sketch,omitempty"`
	// Exemplar is the highest-valued exemplar across the targets: the
	// trace ID of the observation that set the fleet-wide high watermark,
	// the jump-off point from a p99 spike to its trace tree.
	Exemplar  *Exemplar                    `json:"exemplar,omitempty"`
	PerTarget map[string]HistogramSnapshot `json:"per_target"`
}

// FleetSnapshot is one aggregation pass over every target: the rollup
// served at /fleet/metrics. JSON encoding sorts map keys, so the
// serialized form is deterministic for a deterministic fleet.
type FleetSnapshot struct {
	// Targets lists every configured target name, in registration order.
	Targets []string `json:"targets"`
	// Errors maps the targets whose Fetch failed this pass to the error;
	// their series are simply absent from the rollup below.
	Errors map[string]string `json:"errors,omitempty"`

	Counters   map[string]AggCounter   `json:"counters"`
	Gauges     map[string]AggGauge     `json:"gauges"`
	Histograms map[string]AggHistogram `json:"histograms"`
}

// Fleet aggregates N obs targets into one FleetSnapshot on demand. The
// targets are fixed at NewFleet, so Collect is safe for concurrent use
// (each pass fetches every target concurrently and merges the results).
type Fleet struct {
	targets []Target
}

// NewFleet builds an aggregator over the given targets; targets without a
// Fetch are dropped.
func NewFleet(targets ...Target) *Fleet {
	f := &Fleet{}
	for _, t := range targets {
		if t.Fetch != nil {
			f.targets = append(f.targets, t)
		}
	}
	return f
}

// Collect fetches every target (concurrently) and merges the snapshots
// into one rollup. A target whose Fetch fails is reported in Errors and
// excluded from the merge; Collect itself never fails.
func (f *Fleet) Collect() FleetSnapshot {
	if f == nil {
		return Aggregate(nil, nil)
	}
	targets := f.targets
	snaps := make([]Snapshot, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], errs[i] = targets[i].Fetch()
		}(i)
	}
	wg.Wait()

	names := make([]string, len(targets))
	merged := make([]Snapshot, 0, len(targets))
	mergedNames := make([]string, 0, len(targets))
	fetchErrs := make(map[string]string)
	for i, t := range targets {
		names[i] = t.Name
		if errs[i] != nil {
			fetchErrs[t.Name] = errs[i].Error()
			continue
		}
		merged = append(merged, snaps[i])
		mergedNames = append(mergedNames, t.Name)
	}
	out := Aggregate(mergedNames, merged)
	out.Targets = names
	if len(fetchErrs) > 0 {
		out.Errors = fetchErrs
	}
	return out
}

// Aggregate merges already-fetched snapshots (parallel slices of target
// name and snapshot) into a rollup. It is the pure core of Collect.
func Aggregate(names []string, snaps []Snapshot) FleetSnapshot {
	out := FleetSnapshot{
		Targets:    append([]string(nil), names...),
		Counters:   make(map[string]AggCounter),
		Gauges:     make(map[string]AggGauge),
		Histograms: make(map[string]AggHistogram),
	}
	for i, snap := range snaps {
		name := names[i]
		//lint:ignore nondeterminism counter merge is a commutative sum into a per-series map; rendering sorts
		for series, v := range snap.Counters {
			agg, ok := out.Counters[series]
			if !ok {
				agg = AggCounter{PerTarget: make(map[string]uint64)}
			}
			agg.Total += v
			agg.PerTarget[name] = v
			out.Counters[series] = agg
		}
		//lint:ignore nondeterminism gauge merge is commutative: sums plus min/max with lexical tie-breaks
		for series, v := range snap.Gauges {
			agg, ok := out.Gauges[series]
			if !ok {
				agg = AggGauge{Min: v, MinTarget: name, Max: v, MaxTarget: name, PerTarget: make(map[string]int64)}
			}
			// Ties resolve to the lexically smallest target name so the
			// rollup does not depend on map iteration order.
			if v < agg.Min || (v == agg.Min && name < agg.MinTarget) {
				agg.Min, agg.MinTarget = v, name
			}
			if v > agg.Max || (v == agg.Max && name < agg.MaxTarget) {
				agg.Max, agg.MaxTarget = v, name
			}
			agg.Sum += v
			agg.PerTarget[name] = v
			out.Gauges[series] = agg
		}
		//lint:ignore nondeterminism histogram merge only sums counts and fills a per-target map
		for series, v := range snap.Histograms {
			agg, ok := out.Histograms[series]
			if !ok {
				agg = AggHistogram{PerTarget: make(map[string]HistogramSnapshot)}
			}
			agg.Count += v.Count
			agg.PerTarget[name] = v
			out.Histograms[series] = agg
		}
	}
	//lint:ignore nondeterminism each series' mean is derived from its own entry; no cross-entry state
	for series, agg := range out.Gauges {
		agg.Mean = float64(agg.Sum) / float64(len(agg.PerTarget))
		out.Gauges[series] = agg
	}
	//lint:ignore nondeterminism each series' sketch is merged from its own entry in sorted target order
	for series, agg := range out.Histograms {
		snaps := make([]HistogramSnapshot, 0, len(agg.PerTarget))
		// Deterministic merge order (map ranges are not): sort the target
		// names first. The sums are order-independent, but tests diffing
		// serialized sketches should not have to think about it.
		tnames := make([]string, 0, len(agg.PerTarget))
		//lint:ignore nondeterminism the collected names are sorted before use
		for tn := range agg.PerTarget {
			tnames = append(tnames, tn)
		}
		sort.Strings(tnames)
		for _, tn := range tnames {
			s := agg.PerTarget[tn]
			snaps = append(snaps, s)
			if s.Exemplar != nil && (agg.Exemplar == nil || s.Exemplar.Value > agg.Exemplar.Value) {
				agg.Exemplar = s.Exemplar
			}
		}
		agg.Sketch = MergeSketches(snaps...)
		hs := HistogramSnapshot{Sketch: agg.Sketch}
		agg.P50 = hs.SketchPercentile(50)
		agg.P99 = hs.SketchPercentile(99)
		out.Histograms[series] = agg
	}
	return out
}
