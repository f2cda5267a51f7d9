// Package unguardedstats is golden-test data for the unguardedstats
// analyzer: it spawns a goroutine, so lock-free structs whose methods
// mutate fields are flagged.
package unguardedstats

import "sync"

// Stats is a plain counter block.
type Stats struct{ Captures, Bytes int }

// Gateway carries no lock.
type Gateway struct {
	stats Stats
	last  int
}

// Process mutates fields without synchronization.
func (g *Gateway) Process(n int) {
	g.stats.Captures++  // want "unguardedstats: g.stats.Captures written without synchronization"
	g.stats.Bytes += n  // want "unguardedstats: g.stats.Bytes written without synchronization"
	g.last = n          // want "unguardedstats: g.last written without synchronization"
}

// Run makes the package concurrent.
func (g *Gateway) Run() {
	go g.Process(1)
}

// Guarded has a direct mutex field, so it is trusted: the rule does not
// check that a write actually holds the lock (go test -race does).
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Bump locks around its mutation: not flagged.
func (s *Guarded) Bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Sneak writes with no lock on any path: still not flagged — this is the
// heuristic's limit, pinned here so it cannot drift silently.
func (s *Guarded) Sneak() {
	s.n++
}

// Local mutation of non-receiver state is not flagged.
func (g *Gateway) Peek() int {
	x := 0
	x++
	return x + g.last
}
