package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	t.Parallel()
	valid := []string{
		"gateway_segments_shipped_total",
		"farm_queue_wait_samples",
		"cloud_frames_lora_total",
		"farm_jobs_queued_count",
		"backhaul_bytes_sent_total",
		"detect_stream_pending_samples",
		"a_b2_ratio",
	}
	for _, name := range valid {
		if !ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = false, want true", name)
		}
	}
	invalid := []string{
		"",
		"gateway_total",            // only two segments
		"Gateway_Segments_Total",   // uppercase
		"gateway_segments_shipped", // unit not in vocabulary
		"gateway__shipped_total",   // empty segment
		"_gateway_shipped_total",   // leading underscore
		"gateway_shipped_total_",   // trailing underscore
		"2gw_shipped_total",        // leading digit
		"gateway_ship-count_total", // dash
	}
	for _, name := range invalid {
		if ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = true, want false", name)
		}
	}
}

func TestNewMetricUnitsAccepted(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"gateway_backoff_current_millis", "gateway_connected_state"} {
		if !ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = false, want true", name)
		}
	}
}

func TestRegistryPanicsOnBadName(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Counter with invalid name did not panic")
		}
	}()
	NewRegistry().Counter("BadName")
}

func TestSanitizeToken(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"lora":    "lora",
		"Z-Wave":  "zwave",
		"802154":  "802154",
		"!!!":     "unknown",
		"HaLow 1": "halow1",
	}
	for in, want := range cases {
		if got := SanitizeToken(in); got != want {
			t.Errorf("SanitizeToken(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	t.Parallel()
	var c *Counter
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(7)
	if s := h.Snapshot(); s.Count != 0 || s.P50 != 0 {
		t.Fatal("nil histogram snapshot")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c1 := r.Counter("gateway_captures_processed_total")
	c2 := r.Counter("gateway_captures_processed_total")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	c1.Add(3)
	if c2.Value() != 3 {
		t.Fatal("counter instances not shared")
	}
	h1 := r.Histogram("farm_queue_wait_samples", 8)
	h2 := r.Histogram("farm_queue_wait_samples", 9999)
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
}

// TestRegistryPrefixedView checks a view registers prefix+name on its
// root: the series show up in the root's snapshot, two views of the same
// prefix share instances, different prefixes never do, views nest, and a
// name that is only valid with the prefix still has to be valid alone.
func TestRegistryPrefixedView(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	s0, s1 := r.Prefixed("cloud_shard0_"), r.Prefixed("cloud_shard1_")
	s0.Counter("farm_jobs_admitted_total").Add(2)
	r.Prefixed("cloud_shard0_").Counter("farm_jobs_admitted_total").Inc()
	s1.Counter("farm_jobs_admitted_total").Add(5)
	s0.Gauge("farm_jobs_queued_count").Set(4)
	s1.Histogram("farm_queue_wait_samples", 8).Observe(9)
	r.Prefixed("cloud_").Prefixed("shard1_").Counter("farm_jobs_rejected_total").Inc()

	snap := s0.Snapshot() // a view reads the whole root
	for name, want := range map[string]uint64{
		"cloud_shard0_farm_jobs_admitted_total": 3,
		"cloud_shard1_farm_jobs_admitted_total": 5,
		"cloud_shard1_farm_jobs_rejected_total": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(snap.Counters) != 3 {
		t.Errorf("counters = %v, want exactly the three prefixed series", snap.Counters)
	}
	if snap.Gauges["cloud_shard0_farm_jobs_queued_count"] != 4 || snap.Histograms["cloud_shard1_farm_queue_wait_samples"].Count != 1 {
		t.Errorf("gauges = %v, histograms = %v", snap.Gauges, snap.Histograms)
	}
	defer func() {
		if recover() == nil {
			t.Error("view accepted a bare name that breaks the scheme")
		}
	}()
	r.Prefixed("cloud_shard0_").Counter("total")
}

// TestHistogramQuantilesMatchFarmEstimator pins the quantile index math to
// the estimator this histogram replaced in internal/farm: four waits
// [0, 300, 500, 600] must yield p50 = sorted[4/2] = 500 and
// p99 = sorted[4*99/100] = sorted[3] = 600, exactly what
// farm.TestQueueWaitSampleClock asserts through Stats.
func TestHistogramQuantilesMatchFarmEstimator(t *testing.T) {
	t.Parallel()
	h := NewHistogram(1024)
	for _, v := range []int64{600, 0, 500, 300} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Window != 1024 {
		t.Fatalf("snapshot meta = %+v", s)
	}
	if s.P50 != 500 || s.P99 != 600 {
		t.Fatalf("quantiles p50=%d p99=%d, want 500/600", s.P50, s.P99)
	}
}

func TestHistogramWindowWraps(t *testing.T) {
	t.Parallel()
	h := NewHistogram(4)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Ring holds the last 4 observations {97..100} in some slot order.
	if s.P50 < 97 || s.P50 > 100 || s.P99 < 97 || s.P99 > 100 {
		t.Fatalf("wrapped quantiles p50=%d p99=%d outside window", s.P50, s.P99)
	}
}

// TestRegistryTorture hammers one registry from parallel writers while
// readers snapshot concurrently; run under -race this is the concurrency
// proof for the whole metrics layer. Counter totals must come out exact.
func TestRegistryTorture(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	const (
		writers = 8
		perW    = 10000
		readers = 4
	)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("snapshot marshal: %v", err)
					return
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func(id int) {
			defer writerWG.Done()
			c := r.Counter("torture_ops_done_total")
			g := r.Gauge("torture_workers_live_count")
			h := r.Histogram("torture_op_cost_samples", 64)
			g.Add(1)
			for n := 0; n < perW; n++ {
				c.Inc()
				h.Observe(int64(id*perW + n))
			}
			g.Add(-1)
		}(i)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["torture_ops_done_total"]; got != writers*perW {
		t.Fatalf("counter = %d, want %d", got, writers*perW)
	}
	if got := snap.Gauges["torture_workers_live_count"]; got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	hs := snap.Histograms["torture_op_cost_samples"]
	if hs.Count != writers*perW || hs.Window != 64 {
		t.Fatalf("histogram meta = %+v", hs)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	t.Parallel()
	build := func() []byte {
		r := NewRegistry()
		r.Counter("alpha_things_seen_total").Add(1)
		r.Counter("beta_things_seen_total").Add(2)
		r.Gauge("alpha_things_live_count").Set(3)
		r.Histogram("alpha_wait_time_samples", 16).Observe(9)
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", a, b)
	}
}
