// Package obs is the observability layer of the GalioT pipeline: a
// registry of named counters and gauges, per-segment trace spans (a
// Tracer times them and sinks each finished one into a TraceStore, the
// one place a process keeps spans), and an HTTP
// introspection server (/metrics, /trace/tree, /trace/slowest,
// /debug/pprof). It is stdlib-only and obeys the repository's determinism
// and hot-path rules (DESIGN.md §10):
//
//   - Counters and gauges are single atomics; incrementing one from the
//     detect or decode hot path is a handful of nanoseconds and never
//     allocates or takes a lock.
//   - Nothing in this package reads the wall clock; trace durations come
//     from an injectable clock that defaults to a deterministic step
//     counter (commands inject time.Now, libraries stay replayable).
//
// Metric names follow subsystem_name_unit (lowercase snake_case, at least
// three segments, unit drawn from a closed vocabulary) so they stay
// greppable; the obsnames lint rule enforces the scheme on literals and
// the registry panics on dynamic names that break it.
package obs

import (
	"sync"
	"sync/atomic"
)

// MetricUnits is the closed unit vocabulary a metric name must end with.
// Keep in sync with the obsnames rule's documentation. "millis" is for
// human-scale durations surfaced on dashboards (backoff delays); "state"
// is for small discrete enumerations (0/1 connectivity flags) where
// neither count nor ratio reads honestly. There is no nanosecond or
// sample unit: how long a stage took, or waited, is a span stage
// (Span.Stage) on the tracer clock, not a metric.
var MetricUnits = []string{"bytes", "count", "millis", "ratio", "state", "total"}

// ValidMetricName reports whether name follows the subsystem_name_unit
// scheme: lowercase snake_case, at least three segments, no empty or
// non-[a-z0-9] segments, first character a letter, final segment one of
// MetricUnits.
func ValidMetricName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	segments := 1
	segStart := 0
	lastSeg := ""
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '_' {
			if i == segStart {
				return false // empty segment
			}
			lastSeg = name[segStart:i]
			segStart = i + 1
			if i < len(name) {
				segments++
			}
			continue
		}
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	if segments < 3 {
		return false
	}
	for _, u := range MetricUnits {
		if lastSeg == u {
			return true
		}
	}
	return false
}

// mustValidName guards registration against dynamic names the obsnames
// lint rule cannot see. A bad name is a programming error, surfaced loudly.
func mustValidName(name string) {
	if !ValidMetricName(name) {
		panic("obs: metric name " + name + " does not follow subsystem_name_unit (lowercase snake_case, >=3 segments, unit in {bytes,count,millis,ratio,state,total})")
	}
}

// SanitizeToken lowercases s and strips everything outside [a-z0-9], for
// splicing externally-sourced identifiers (technology names, gateway IDs)
// into metric names.
func SanitizeToken(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+('a'-'A'))
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so instrumented code never needs a "metrics enabled?"
// branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a concurrent-safe namespace of metrics. Getters create on
// first use and return the same instance afterwards, so independently
// wired subsystems sharing a registry converge on the same counters.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// Registration-ordered names, so snapshots never iterate a map
	// (iteration order would vary run to run).
	counterNames []string
	gaugeNames   []string

	// root is set on a view (see Prefixed): the view owns no metrics and
	// registers every name as prefix+name on root.
	root   *Registry
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Prefixed returns a view of r that registers every metric as
// prefix+name on r itself, so r.Snapshot (and /metrics) carries the
// view's series beside r's own. A component that registers fixed names
// (the farm's farm_*) gets one namespace per instance this way: the
// decode plane hands shard i the view "cloud_shard<i>_". Snapshot on a
// view reads all of r.
func (r *Registry) Prefixed(prefix string) *Registry {
	return &Registry{root: r, prefix: prefix}
}

// Counter returns the named counter, creating it on first use. The name
// must follow the subsystem_name_unit scheme (see ValidMetricName).
func (r *Registry) Counter(name string) *Counter {
	mustValidName(name)
	if r.root != nil {
		return r.root.Counter(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.counterNames = append(r.counterNames, name)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	mustValidName(name)
	if r.root != nil {
		return r.root.Gauge(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.gaugeNames = append(r.gaugeNames, name)
	return g
}

// Snapshot is a point-in-time copy of every metric in a registry. JSON
// encoding sorts map keys, so the serialized form is deterministic.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
}

// Snapshot reads every metric. Safe to call concurrently with writers; the
// result is a consistent-enough view for monitoring (each metric is read
// atomically, the set as a whole is not a transaction).
func (r *Registry) Snapshot() Snapshot {
	if r.root != nil {
		return r.root.Snapshot()
	}
	type counterRef struct {
		name string
		c    *Counter
	}
	type gaugeRef struct {
		name string
		g    *Gauge
	}
	r.mu.Lock()
	counters := make([]counterRef, len(r.counterNames))
	for i, name := range r.counterNames {
		counters[i] = counterRef{name, r.counters[name]}
	}
	gauges := make([]gaugeRef, len(r.gaugeNames))
	for i, name := range r.gaugeNames {
		gauges[i] = gaugeRef{name, r.gauges[name]}
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters: make(map[string]uint64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
	}
	for _, ref := range counters {
		snap.Counters[ref.name] = ref.c.Value()
	}
	for _, ref := range gauges {
		snap.Gauges[ref.name] = ref.g.Value()
	}
	return snap
}
