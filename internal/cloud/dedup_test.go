package cloud

import (
	"testing"

	"repro/internal/backhaul"
)

// TestDedupCacheChurnStaysBounded churns far past capacity: the cache keeps
// exactly the newest size entries, and its insertion-order list holds no
// more than the map does.
func TestDedupCacheChurnStaysBounded(t *testing.T) {
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
	if got := c.order.Len(); got != 4 {
		t.Fatalf("insertion-order list holds %d entries for a size-4 cache", got)
	}
	for start := int64(churn - 4); start < churn; start++ {
		rep, ok := c.get(k(start))
		if !ok || rep.SegmentStart != start {
			t.Fatalf("entry %d missing or wrong after churn", start)
		}
	}
}

// TestDedupCacheEvictsInInsertionOrderAcrossSupersede checks that the count
// bound evicts strictly in insertion order among live entries: an entry
// dropped by supersede leaves no trace that a later eviction could pick
// in place of the oldest live one.
func TestDedupCacheEvictsInInsertionOrderAcrossSupersede(t *testing.T) {
	t.Parallel()
	c := &dedupCache{size: 2}
	key := func(gw string, epoch uint64) dedupKey { return dedupKey{gateway: gw, epoch: epoch} }
	put := func(gw string, epoch uint64) { c.put(key(gw, epoch), backhaul.FramesReport{}) }
	has := func(gw string, epoch uint64) bool { _, ok := c.get(key(gw, epoch)); return ok }

	put("a", 1)
	put("b", 1)
	if dropped := c.supersede("a", 2); dropped != 1 {
		t.Fatalf("supersede dropped %d entries, want 1", dropped)
	}
	put("c", 2)
	if got := c.len(); got != 2 {
		t.Fatalf("live entries = %d, want 2", got)
	}
	put("d", 2) // evicts b/1, the oldest live entry
	if has("b", 1) || !has("c", 2) || !has("d", 2) {
		t.Fatalf("after d: b/1 %v, c/2 %v, d/2 %v; want only c/2 and d/2 live", has("b", 1), has("c", 2), has("d", 2))
	}
	put("e", 2) // evicts c/2
	if has("c", 2) || !has("d", 2) || !has("e", 2) {
		t.Fatalf("after e: c/2 %v, d/2 %v, e/2 %v; want only d/2 and e/2 live", has("c", 2), has("d", 2), has("e", 2))
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
