package cloud

import (
	"container/list"
	"sync"

	"repro/internal/backhaul"
)

// DefaultDedupCapacity bounds the replay-deduplication cache: the number
// of decoded segment reports remembered across all gateways and epochs.
const DefaultDedupCapacity = 4096

// dedupKey identifies one decoded segment for replay deduplication. The
// gateway's epoch is part of the key so a restarted gateway (new epoch)
// re-decodes everything, while a reconnecting one (same epoch) gets its
// replayed window answered from cache.
type dedupKey struct {
	gateway string
	epoch   uint64
	start   int64
}

// dedupEntry is one cached report, held in the cache's insertion-order
// list.
type dedupEntry struct {
	key dedupKey
	rep backhaul.FramesReport
}

// dedupCache is a bounded map from decoded segments to their frames
// reports. A reconnecting gateway replays its unacknowledged window after
// every flap; serving those replays from cache keeps the decode farm off
// the hook and guarantees each segment is decoded exactly once per epoch.
//
// Two rules bound it. The count bound (size, default DefaultDedupCapacity)
// always holds: eviction is oldest-insertion-first. Epoch supersede drops a
// gateway's entries under dead epochs when it announces a new one.
type dedupCache struct {
	mu    sync.Mutex
	size  int
	m     map[dedupKey]*list.Element
	order list.List // insertion order, oldest at the front; values are *dedupEntry
}

func (c *dedupCache) get(k dedupKey) (backhaul.FramesReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return backhaul.FramesReport{}, false
	}
	return el.Value.(*dedupEntry).rep, true
}

func (c *dedupCache) put(k dedupKey, rep backhaul.FramesReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.size <= 0 {
		c.size = DefaultDedupCapacity
	}
	if c.m == nil {
		c.m = make(map[dedupKey]*list.Element, c.size)
	}
	if _, ok := c.m[k]; ok {
		return
	}
	if len(c.m) >= c.size {
		c.drop(c.order.Front())
	}
	c.m[k] = c.order.PushBack(&dedupEntry{key: k, rep: rep})
}

// drop removes one entry; callers hold c.mu.
func (c *dedupCache) drop(el *list.Element) {
	delete(c.m, c.order.Remove(el).(*dedupEntry).key)
}

// supersede drops every entry of the gateway belonging to a different
// epoch and returns how many were dropped. A restarted gateway announces a
// fresh epoch in its hello and replays its persisted window under it, so
// reports cached under the dead epochs can never be asked for again —
// holding them would only squeeze live entries out of the count bound.
func (c *dedupCache) supersede(gateway string, epoch uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped uint64
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*dedupEntry).key; k.gateway == gateway && k.epoch != epoch {
			c.drop(el)
			dropped++
		}
		el = next
	}
	return dropped
}

// len reports the live entry count (tests and monitoring).
func (c *dedupCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// sessionDedup is the cache scoped to one session's gateway identity and
// epoch. Nil when the gateway's hello carried no epoch (dedup disabled).
type sessionDedup struct {
	c       *dedupCache
	gateway string
	epoch   uint64
}

func (d *sessionDedup) get(start int64) (backhaul.FramesReport, bool) {
	return d.c.get(dedupKey{gateway: d.gateway, epoch: d.epoch, start: start})
}

func (d *sessionDedup) put(start int64, rep backhaul.FramesReport) {
	d.c.put(dedupKey{gateway: d.gateway, epoch: d.epoch, start: start}, rep)
}
