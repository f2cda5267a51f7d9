// Package fleet implements the sharded decode plane: a front tier that
// accepts backhaul sessions, learns each session's identity from its hello,
// and routes the whole connection to one of N shared-nothing decode shards
// via a consistent-hash ring keyed (gateway ID, session epoch).
//
// Sharding at session granularity is what keeps the shards shared-nothing:
// every segment of a session lands on the same shard, so the replay dedup
// cache (keyed gateway+epoch+segment start) and the per-session reply
// sequencer stay shard-local and need no cross-shard coordination. The
// hash ring means a shard-count change moves only ~1/N of the keyspace:
// reconnecting gateways mostly land back on the shard that already holds
// their dedup state.
//
// The front advertises the plane's aggregate capacity in the hello ack
// (HelloAck.Shards, HelloAck.Capacity) so auto-sizing gateways can scale
// their shipping windows with the fleet (DESIGN.md §13).
package fleet

import (
	"sort"
)

// DefaultVNodes is the virtual-node count per shard of a Front's ring. 512
// points per shard keeps the keyspace split within a few percent of even
// for small shard counts.
const DefaultVNodes = 512

// Ring is a consistent-hash ring over shard indices. Immutable after
// NewRing, so lookups are safe for concurrent use without locks.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// pointHash places virtual node (shard, replica) on the ring. A
// splitmix64 finalizer disperses the structured low-entropy input far more
// evenly than a byte-stream hash, which is what keeps small rings within
// the ±15% distribution budget.
func pointHash(shard, replica int) uint64 {
	x := uint64(shard)<<32 ^ uint64(replica)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing builds a ring of `shards` shards with `vnodes` virtual nodes
// each (vnodes <= 0 selects DefaultVNodes). Point placement is a pure
// function of (shard index, replica index): two rings built with the same
// shard count are identical, and growing the ring only inserts the new
// shard's points — existing keys either keep their shard or move to the
// new one.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break deterministically by shard so
		// two identically-built rings still agree point for point.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// KeyHash hashes one routing key: FNV-1a over the gateway ID bytes
// followed by the epoch's 8 big-endian bytes (inlined — hash.Hash's Write
// can never fail here and its error result would only be noise). Exposed
// so tests and tooling can reason about placement without a ring.
func KeyHash(gateway string, epoch uint64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(gateway); i++ {
		h ^= uint64(gateway[i])
		h *= prime64
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (epoch >> uint(shift)) & 0xff
		h *= prime64
	}
	return h
}

// Lookup maps a session key to its shard: the first ring point at or after
// the key's hash, wrapping at the top of the hash space.
func (r *Ring) Lookup(gateway string, epoch uint64) int {
	key := KeyHash(gateway, epoch)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
