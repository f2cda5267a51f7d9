// Package obs is a golden-test stub of the real metrics registry: the
// obsnames rule matches any Registry type defined in a package whose
// import path ends in internal/obs.
package obs

type Counter struct{ v uint64 }

func (c *Counter) Inc() { c.v++ }

type Gauge struct{ v int64 }

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) Counter(name string) *Counter { return &Counter{} }

func (r *Registry) Gauge(name string) *Gauge { return &Gauge{} }

type Journal struct{}

func NewJournal(ringSize int) *Journal { return &Journal{} }

func (j *Journal) Record(name string, value int64) {}

type CheckResult struct {
	Healthy bool
	Detail  string
}

type Health struct{}

func NewHealth() *Health { return &Health{} }

func (h *Health) Register(name string, check func() CheckResult) {}

func (h *Health) RegisterReadiness(name string, check func() CheckResult) {}
