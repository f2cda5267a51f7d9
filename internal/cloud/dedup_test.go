package cloud

import (
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/obs"
)

// fakeClock is a manually-advanced time source for TTL tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() int64 { return f.t.UnixNano() }

func TestDedupCacheAgeBound(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	evict := reg.Counter("cloud_dedup_evictions_total")
	c := &dedupCache{size: 8}
	c.setTTL(time.Minute, clk.now, evict)
	k := func(start int64) dedupKey { return dedupKey{gateway: "gw", epoch: 1, start: start} }

	c.put(k(0), backhaul.FramesReport{SegmentStart: 0})
	clk.t = clk.t.Add(30 * time.Second)
	c.put(k(1), backhaul.FramesReport{SegmentStart: 1})

	// 59s after the first put: both entries within the minute, no evictions.
	clk.t = clk.t.Add(29 * time.Second)
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("entry 0 evicted before its ttl")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 evicted before its ttl")
	}
	if n := evict.Value(); n != 0 {
		t.Fatalf("evictions = %d before any ttl passed, want 0", n)
	}

	// 61s after the first put: entry 0 is past the ttl, entry 1 is not.
	clk.t = clk.t.Add(2 * time.Second)
	if _, ok := c.get(k(0)); ok {
		t.Fatal("entry 0 survived past its ttl")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 evicted 31s into its minute")
	}
	if n := evict.Value(); n != 1 {
		t.Fatalf("evictions = %d after one age eviction, want 1", n)
	}

	// Far future: everything ages out, even without gets in between.
	clk.t = clk.t.Add(time.Hour)
	c.put(k(2), backhaul.FramesReport{SegmentStart: 2})
	if got := c.len(); got != 1 {
		t.Fatalf("live entries = %d after everything aged out, want 1", got)
	}
	if n := evict.Value(); n != 2 {
		t.Fatalf("evictions = %d, want 2 (count-bound evictions must not count)", n)
	}
}

func TestDedupCacheCountBoundDoesNotCountAsAgeEviction(t *testing.T) {
	t.Parallel()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	evict := reg.Counter("cloud_dedup_evictions_total")
	c := &dedupCache{size: 2}
	c.setTTL(time.Hour, clk.now, evict)
	k := func(start int64) dedupKey { return dedupKey{gateway: "gw", epoch: 1, start: start} }

	for start := int64(0); start < 5; start++ {
		clk.t = clk.t.Add(time.Second)
		c.put(k(start), backhaul.FramesReport{SegmentStart: start})
	}
	if _, ok := c.get(k(0)); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if _, ok := c.get(k(4)); !ok {
		t.Fatal("newest entry missing")
	}
	if got := c.len(); got != 2 {
		t.Fatalf("live entries = %d, want 2", got)
	}
	if n := evict.Value(); n != 0 {
		t.Fatalf("age evictions = %d for count-bound churn, want 0", n)
	}
}

func TestDedupCacheZeroTTLStaysCountBound(t *testing.T) {
	t.Parallel()
	c := &dedupCache{size: 2}
	c.setTTL(0, nil, nil)
	k := func(start int64) dedupKey { return dedupKey{gateway: "gw", epoch: 1, start: start} }
	c.put(k(0), backhaul.FramesReport{SegmentStart: 0})
	c.put(k(1), backhaul.FramesReport{SegmentStart: 1})
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("entry 0 missing with aging disabled")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 missing with aging disabled")
	}
}

// TestDedupCacheFIFOCompaction churns far past capacity so the consumed
// FIFO prefix is reclaimed; the cache must stay correct across compactions.
func TestDedupCacheFIFOCompaction(t *testing.T) {
	t.Parallel()
	c := &dedupCache{size: 4}
	k := func(start int64) dedupKey { return dedupKey{gateway: "gw", epoch: 1, start: start} }
	const churn = 500
	for start := int64(0); start < churn; start++ {
		c.put(k(start), backhaul.FramesReport{SegmentStart: start})
	}
	if got := c.len(); got != 4 {
		t.Fatalf("live entries = %d, want 4", got)
	}
	for start := int64(churn - 4); start < churn; start++ {
		rep, ok := c.get(k(start))
		if !ok || rep.SegmentStart != start {
			t.Fatalf("entry %d missing or wrong after churn", start)
		}
	}
	if len(c.fifo) > 64 {
		t.Fatalf("fifo grew to %d entries for a size-4 cache; compaction broken", len(c.fifo))
	}
}

// TestDedupCacheSupersede checks epoch supersession: a fresh epoch drops the
// gateway's entries under dead epochs, leaves its current-epoch entries and
// other gateways alone, and reports exactly how many it dropped.
func TestDedupCacheSupersede(t *testing.T) {
	t.Parallel()
	c := &dedupCache{size: 16}
	put := func(gw string, epoch uint64, start int64) {
		c.put(dedupKey{gateway: gw, epoch: epoch, start: start}, backhaul.FramesReport{SegmentStart: start})
	}
	put("gw-a", 7, 0)
	put("gw-a", 7, 100)
	put("gw-a", 7, 200)
	put("gw-a", 8, 300) // already on the new epoch: must survive
	put("gw-b", 7, 400) // different gateway: must survive

	if dropped := c.supersede("gw-a", 8); dropped != 3 {
		t.Fatalf("supersede dropped %d entries, want 3", dropped)
	}
	if got := c.len(); got != 2 {
		t.Fatalf("live entries = %d after supersession, want 2", got)
	}
	if _, ok := c.get(dedupKey{gateway: "gw-a", epoch: 7, start: 100}); ok {
		t.Fatal("dead-epoch entry survived supersession")
	}
	if _, ok := c.get(dedupKey{gateway: "gw-a", epoch: 8, start: 300}); !ok {
		t.Fatal("current-epoch entry dropped by supersession")
	}
	if _, ok := c.get(dedupKey{gateway: "gw-b", epoch: 7, start: 400}); !ok {
		t.Fatal("other gateway's entry dropped by supersession")
	}
	// Same epoch again: nothing left to supersede.
	if dropped := c.supersede("gw-a", 8); dropped != 0 {
		t.Fatalf("second supersede dropped %d entries, want 0", dropped)
	}
}
