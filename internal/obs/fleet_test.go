package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"testing"
)

func TestSketchRoundTripExactBelow16(t *testing.T) {
	t.Parallel()
	for v := int64(-3); v < 16; v++ {
		want := v
		if v < 0 {
			want = 0
		}
		if got := SketchValue(SketchIndex(v)); got != want {
			t.Errorf("SketchValue(SketchIndex(%d)) = %d, want %d", v, got, want)
		}
	}
}

func TestSketchErrorBound(t *testing.T) {
	t.Parallel()
	// The documented bound: for v >= 16 the bucket midpoint is within
	// 1/16 of the value. Walk a dense range plus exponentially spaced
	// large values.
	check := func(v int64) {
		rep := SketchValue(SketchIndex(v))
		if err := math.Abs(float64(rep-v)) / float64(v); err > 1.0/16 {
			t.Errorf("value %d reconstructs to %d: relative error %.4f > 1/16", v, rep, err)
		}
	}
	for v := int64(16); v < 4096; v++ {
		check(v)
	}
	for v := int64(1); v > 0 && v < 1<<60; v = v*7 + 13 {
		if v >= 16 {
			check(v)
		}
	}
}

func TestSketchIndexMonotone(t *testing.T) {
	t.Parallel()
	prev := SketchIndex(0)
	for v := int64(1); v < 1<<20; v++ {
		idx := SketchIndex(v)
		if idx < prev {
			t.Fatalf("SketchIndex(%d) = %d < SketchIndex(%d) = %d", v, idx, v-1, prev)
		}
		prev = idx
	}
}

// splitmix is a tiny deterministic generator for test workloads.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestMergedQuantilesWithinSketchError is the rollup-correctness half of
// the aggregation contract: quantiles read from a merged sketch must be
// within the documented 1/16 relative error of the exact quantiles over
// the union of the windows.
func TestMergedQuantilesWithinSketchError(t *testing.T) {
	t.Parallel()
	const targets, perTarget = 5, 700
	state := uint64(42)
	var all []int64
	names := make([]string, 0, targets)
	snaps := make([]Snapshot, 0, targets)
	for ti := 0; ti < targets; ti++ {
		reg := NewRegistry()
		h := reg.Histogram("farm_queue_wait_samples", perTarget)
		for i := 0; i < perTarget; i++ {
			// Heavy-tailed positive values across several octaves, the
			// shape of real queue waits.
			v := int64(splitmix(&state)%100) * int64(splitmix(&state)%1000)
			h.Observe(v)
			all = append(all, v)
		}
		names = append(names, "shard"+string(rune('0'+ti)))
		snaps = append(snaps, reg.Snapshot())
	}
	agg := Aggregate(names, snaps)
	ah, ok := agg.Histograms["farm_queue_wait_samples"]
	if !ok {
		t.Fatal("merged histogram missing from rollup")
	}
	if ah.Count != targets*perTarget {
		t.Fatalf("merged count = %d, want %d", ah.Count, targets*perTarget)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, p := range []struct {
		pct int
		got int64
	}{{50, ah.P50}, {99, ah.P99}} {
		exact := all[len(all)*p.pct/100]
		if exact < 16 {
			if p.got != exact {
				t.Errorf("p%d = %d, want exactly %d (small values are exact)", p.pct, p.got, exact)
			}
			continue
		}
		if err := math.Abs(float64(p.got-exact)) / float64(exact); err > 1.0/16 {
			t.Errorf("p%d = %d vs exact %d: relative error %.4f > 1/16", p.pct, p.got, exact, err)
		}
	}
}

func TestAggregateCountersSumExactly(t *testing.T) {
	t.Parallel()
	names := []string{"shard0", "shard1", "front"}
	snaps := []Snapshot{
		{Counters: map[string]uint64{"cloud_segments_decoded_total": 3, "cloud_frames_decoded_total": 5}},
		{Counters: map[string]uint64{"cloud_segments_decoded_total": 7}},
		{Counters: map[string]uint64{"cloud_fleet_sessions_total": 11}},
	}
	agg := Aggregate(names, snaps)
	if got := agg.Counters["cloud_segments_decoded_total"]; got.Total != 10 {
		t.Errorf("decoded total = %d, want 10", got.Total)
	}
	if got := agg.Counters["cloud_segments_decoded_total"].PerTarget["shard1"]; got != 7 {
		t.Errorf("shard1 decoded = %d, want 7", got)
	}
	if got := agg.Counters["cloud_frames_decoded_total"]; got.Total != 5 || len(got.PerTarget) != 1 {
		t.Errorf("frames agg = %+v, want total 5 from one target", got)
	}
	if got := agg.Counters["cloud_fleet_sessions_total"].Total; got != 11 {
		t.Errorf("front-only counter total = %d, want 11", got)
	}
}

func TestAggregateGaugesLabeledExtremes(t *testing.T) {
	t.Parallel()
	names := []string{"shard0", "shard1", "shard2"}
	snaps := []Snapshot{
		{Gauges: map[string]int64{"farm_jobs_queued_count": 4}},
		{Gauges: map[string]int64{"farm_jobs_queued_count": 10}},
		{Gauges: map[string]int64{"farm_jobs_queued_count": 1}},
	}
	agg := Aggregate(names, snaps)
	g := agg.Gauges["farm_jobs_queued_count"]
	if g.Min != 1 || g.MinTarget != "shard2" {
		t.Errorf("min = %d@%s, want 1@shard2", g.Min, g.MinTarget)
	}
	if g.Max != 10 || g.MaxTarget != "shard1" {
		t.Errorf("max = %d@%s, want 10@shard1", g.Max, g.MaxTarget)
	}
	if g.Sum != 15 {
		t.Errorf("sum = %d, want 15", g.Sum)
	}
	if math.Abs(g.Mean-5) > 1e-9 {
		t.Errorf("mean = %v, want 5", g.Mean)
	}
}

func TestFleetCollectReportsFetchErrors(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("cloud_segments_decoded_total").Add(9)
	f := NewFleet(
		RegistryTarget("good", reg),
		Target{Name: "bad", Fetch: func() (Snapshot, error) {
			return Snapshot{}, errTest
		}},
	)
	snap := f.Collect()
	if len(snap.Targets) != 2 {
		t.Fatalf("targets = %v, want both listed", snap.Targets)
	}
	if snap.Errors["bad"] == "" {
		t.Fatalf("errors = %v, want bad target reported", snap.Errors)
	}
	if got := snap.Counters["cloud_segments_decoded_total"].Total; got != 9 {
		t.Errorf("total = %d, want 9 (bad target excluded, good merged)", got)
	}
}

var errTest = errAlways("target down")

type errAlways string

func (e errAlways) Error() string { return string(e) }

// TestServerFleetEndpoints drives the four new endpoints end to end over
// a real listener: /fleet/metrics, /healthz, /readyz, /events/recent.
func TestServerFleetEndpoints(t *testing.T) {
	t.Parallel()
	regA, regB := NewRegistry(), NewRegistry()
	regA.Counter("cloud_segments_decoded_total").Add(2)
	regB.Counter("cloud_segments_decoded_total").Add(5)
	j := NewJournal(8)
	j.Record("fleet_shard_attach", 0)
	j.Record("fleet_shard_attach", 1)
	h := NewHealth()
	healthy := true
	h.Register("fleet_plane_liveness", func() CheckResult {
		if healthy {
			return Healthy("")
		}
		return Unhealthy("down")
	})

	srv := &Server{
		Journal: j,
		Health:  h,
		Fleet:   NewFleet(RegistryTarget("shard0", regA), RegistryTarget("shard1", regB)),
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	var fs FleetSnapshot
	getJSON(t, base+"/fleet/metrics", http.StatusOK, &fs)
	if got := fs.Counters["cloud_segments_decoded_total"].Total; got != 7 {
		t.Errorf("/fleet/metrics total = %d, want 7", got)
	}
	if len(fs.Targets) != 2 {
		t.Errorf("/fleet/metrics targets = %v, want 2", fs.Targets)
	}

	var events []Event
	getJSON(t, base+"/events/recent", http.StatusOK, &events)
	if len(events) != 1 || events[0].Name != "fleet_shard_attach" || events[0].Count != 2 {
		t.Errorf("/events/recent = %+v, want one coalesced fleet_shard_attach", events)
	}

	var hs HealthSnapshot
	getJSON(t, base+"/healthz", http.StatusOK, &hs)
	if !hs.Healthy {
		t.Errorf("/healthz = %+v, want healthy", hs)
	}
	healthy = false
	getJSON(t, base+"/healthz", http.StatusServiceUnavailable, &hs)
	if hs.Healthy || len(hs.Checks) != 1 {
		t.Errorf("/healthz after flip = %+v, want unhealthy with the check listed", hs)
	}
	getJSON(t, base+"/readyz", http.StatusServiceUnavailable, &hs)
	if hs.Healthy {
		t.Errorf("/readyz = %+v, want unready while a liveness check fails", hs)
	}
}

// getJSON fetches url, asserts the status code, and decodes the body.
func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}
