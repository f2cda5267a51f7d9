package cloud

import (
	"sync"
	"time"

	"repro/internal/backhaul"
	"repro/internal/obs"
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

// dedupValue is a cached report plus its insertion time (zero when the
// cache has no clock). The timestamp doubles as a liveness token: a FIFO
// entry is live iff its timestamp matches the map's.
type dedupValue struct {
	rep backhaul.FramesReport
	at  int64 // c.now() at insertion
}

// dedupEntry is one insertion-order record.
type dedupEntry struct {
	key dedupKey
	at  int64
}

// dedupCache is a bounded FIFO map from decoded segments to their frames
// reports. A reconnecting v2 gateway replays its unacknowledged window
// after every flap; serving those replays from cache keeps the decode farm
// off the hook and guarantees each segment is decoded exactly once per
// epoch.
//
// Two bounds apply. The count bound (size, default DefaultDedupCapacity)
// always holds: eviction is oldest-insertion-first. The age bound is
// optional: when ttl > 0 and a clock is injected (setTTL — the cache never
// reads the wall clock itself, per the determinism rules), entries older
// than ttl are dropped lazily on get/put and counted on the evictions
// counter. A replay that outlives the ttl is simply re-decoded, so staying
// lazy (no sweeper goroutine) is safe; what the ttl buys is that a
// long-idle cloud does not pin up to 4096 stale reports' payloads forever.
type dedupCache struct {
	mu        sync.Mutex
	size      int
	ttl       time.Duration
	now       func() int64 // wall nanoseconds; nil disables aging
	evictions *obs.Counter // age-based evictions only (nil-safe)
	m         map[dedupKey]dedupValue
	fifo      []dedupEntry // insertion order; may hold stale entries
	head      int          // index of the oldest fifo entry
}

// setTTL installs the age bound and its clock. A zero ttl or nil clock
// disables aging (the cache stays purely count-bound). Callers may swap
// the evictions counter at the same time; nil detaches it.
func (c *dedupCache) setTTL(ttl time.Duration, now func() int64, evictions *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ttl <= 0 || now == nil {
		c.ttl, c.now = 0, nil
	} else {
		c.ttl, c.now = ttl, now
	}
	c.evictions = evictions
}

// setEvictions re-points the age-eviction counter (UseObs moves the cloud
// metrics to a shared registry after construction).
func (c *dedupCache) setEvictions(ctr *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions = ctr
}

// clock returns the current time in nanoseconds, or 0 when aging is off.
// Callers hold c.mu.
func (c *dedupCache) clock() int64 {
	if c.now == nil {
		return 0
	}
	return c.now()
}

// expire drops every live entry older than the ttl, walking from the FIFO
// head. Callers hold c.mu.
func (c *dedupCache) expire(nowNanos int64) {
	if c.ttl <= 0 || nowNanos == 0 {
		return
	}
	cutoff := nowNanos - int64(c.ttl)
	for c.head < len(c.fifo) {
		e := c.fifo[c.head]
		if v, ok := c.m[e.key]; ok && v.at == e.at {
			if e.at > cutoff {
				break // FIFO order == insertion-time order; the rest is younger
			}
			delete(c.m, e.key)
			c.evictions.Inc()
		}
		// Stale entry (already evicted or re-inserted later): just skip it.
		c.fifo[c.head] = dedupEntry{}
		c.head++
	}
	c.compact()
}

// evictOldest removes the oldest live entry to make room. Callers hold
// c.mu and have checked len(c.m) > 0.
func (c *dedupCache) evictOldest() {
	for c.head < len(c.fifo) {
		e := c.fifo[c.head]
		c.fifo[c.head] = dedupEntry{}
		c.head++
		if v, ok := c.m[e.key]; ok && v.at == e.at {
			delete(c.m, e.key)
			c.compact()
			return
		}
	}
}

// compact reclaims the consumed FIFO prefix once it dominates the slice,
// keeping the amortized cost of head advancement O(1) per insertion.
func (c *dedupCache) compact() {
	if c.head > len(c.fifo)/2 && c.head > 16 {
		n := copy(c.fifo, c.fifo[c.head:])
		c.fifo = c.fifo[:n]
		c.head = 0
	}
}

func (c *dedupCache) get(k dedupKey) (backhaul.FramesReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nowNanos := c.clock()
	c.expire(nowNanos)
	v, ok := c.m[k]
	if !ok {
		return backhaul.FramesReport{}, false
	}
	return v.rep, true
}

func (c *dedupCache) put(k dedupKey, rep backhaul.FramesReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.size <= 0 {
		c.size = DefaultDedupCapacity
	}
	if c.m == nil {
		c.m = make(map[dedupKey]dedupValue, c.size)
	}
	nowNanos := c.clock()
	c.expire(nowNanos)
	if _, ok := c.m[k]; ok {
		return
	}
	if len(c.m) >= c.size {
		c.evictOldest()
	}
	c.m[k] = dedupValue{rep: rep, at: nowNanos}
	c.fifo = append(c.fifo, dedupEntry{key: k, at: nowNanos})
}

// supersede drops every live entry of the gateway belonging to a different
// epoch and returns how many were dropped. A restarted gateway announces a
// fresh epoch in its hello and replays its persisted window under it, so
// reports cached under the dead epochs can never be asked for again —
// holding them would only squeeze live entries out of the count bound. The
// FIFO keeps its now-stale records; the liveness token makes them skippable.
func (c *dedupCache) supersede(gateway string, epoch uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped uint64
	for i := c.head; i < len(c.fifo); i++ {
		e := c.fifo[i]
		if e.key.gateway != gateway || e.key.epoch == epoch {
			continue
		}
		if v, ok := c.m[e.key]; ok && v.at == e.at {
			delete(c.m, e.key)
			dropped++
		}
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
