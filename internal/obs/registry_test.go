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
		"cloud_frames_lora_total",
		"farm_jobs_queued_count",
		"backhaul_bytes_sent_total",
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
		"farm_jobs_wait_samples",   // samples is not a unit: waits are span stages
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
	if snap.Gauges["cloud_shard0_farm_jobs_queued_count"] != 4 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	defer func() {
		if recover() == nil {
			t.Error("view accepted a bare name that breaks the scheme")
		}
	}()
	r.Prefixed("cloud_shard0_").Counter("total")
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
		go func() {
			defer writerWG.Done()
			c := r.Counter("torture_ops_done_total")
			g := r.Gauge("torture_workers_live_count")
			g.Add(1)
			for n := 0; n < perW; n++ {
				c.Inc()
			}
			g.Add(-1)
		}()
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
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	t.Parallel()
	build := func() []byte {
		r := NewRegistry()
		r.Counter("alpha_things_seen_total").Add(1)
		r.Counter("beta_things_seen_total").Add(2)
		r.Gauge("alpha_things_live_count").Set(3)
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
