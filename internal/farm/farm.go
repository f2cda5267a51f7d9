// Package farm implements the cloud's concurrent decode farm: a bounded
// job queue with admission control in front of a pool of collision-decode
// workers. It is the piece that lets one cloud process absorb "several such
// gateways" worth of shipped I/Q (paper Sec. 4) — instead of one blocking
// decode per connection, every session feeds the shared queue and a fixed
// worker pool drains it, so a slow collision decode on one session no
// longer stalls the others.
//
// Design points (DESIGN.md §9):
//
//   - Admission control: the queue depth is a hard bound. TrySubmit rejects
//     with ErrBusy when the queue is full (the session answers the gateway
//     with an explicit MsgBusy instead of growing memory without bound);
//     Submit blocks, which turns the bound into backpressure for in-process
//     producers (experiments, benchmarks) that have no busy vocabulary.
//   - Deadlines/cancellation: every job carries a context.Context. A job
//     whose context is already done when a worker picks it up is skipped
//     (counted as DeadlineExceeded) — dead sessions do not waste decode
//     cycles. The decode itself is not preemptible.
//   - Out-of-order completion: workers finish in whatever order decodes
//     take; the per-session Sequencer (sequencer.go) restores submission
//     order on the reply path.
//   - Graceful drain: Close stops intake, lets the workers finish every
//     admitted job (each job's done callback runs exactly once), and only
//     then returns. No admitted segment is ever dropped.
//   - Queue wait is a span stage: a traced job's farm_queue stage is the
//     time from admission to dispatch on its span's tracer clock, the same
//     clock every other stage uses. The farm keeps no clock of its own.
package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/obs"
)

// DecodeFunc decodes one shipped segment. Implementations must be safe for
// concurrent use by multiple workers.
type DecodeFunc func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error)

// Config sizes a Farm.
type Config struct {
	// Workers is the number of decode goroutines (default 4).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-dispatched jobs
	// (default 64). Beyond it, TrySubmit rejects and Submit blocks.
	QueueDepth int
	// Decode runs one segment. Required.
	Decode DecodeFunc
	// Obs receives the farm's metrics (the farm_jobs_* counters and
	// gauges). Nil creates a private registry so Snapshot keeps working
	// standalone.
	Obs *obs.Registry
}

// Sentinel errors returned by the admission path.
var (
	// ErrBusy means the queue is full; the caller should reject the
	// segment explicitly (MsgBusy) rather than wait.
	ErrBusy = errors.New("farm: queue full")
	// ErrClosed means the farm is draining or closed; no new work is
	// admitted.
	ErrClosed = errors.New("farm: closed")
)

// Result is the outcome of one job, delivered to its done callback.
type Result struct {
	Report backhaul.FramesReport
	// Err is non-nil when the job was skipped (context cancelled or
	// deadline exceeded before a worker reached it) or the decode failed.
	Err error
}

// job is one admitted segment waiting for a worker.
type job struct {
	ctx      context.Context
	seg      backhaul.Segment
	done     func(Result)
	admitted int64 // the span's tracer clock at admission (0 untraced)
}

// Farm is the shared decode farm. Create with New, stop with Close.
type Farm struct {
	cfg Config

	mu    sync.Mutex
	work  *sync.Cond // signaled when a job is queued or the farm closes
	space *sync.Cond // signaled when a queue slot frees up
	queue []job
	head  int
	wg    sync.WaitGroup

	closed bool

	// Metrics live on the registry (Config.Obs or a private one) so the
	// same numbers feed Snapshot, /metrics, and the shutdown dump.
	admitted  *obs.Counter
	completed *obs.Counter
	rejected  *obs.Counter
	deadline  *obs.Counter
	queuedG   *obs.Gauge
	inFlightG *obs.Gauge
}

// Stats is a point-in-time snapshot of the farm, exposed through
// Snapshot, fleet.Front.Stats and the galiot-cloud shutdown log.
type Stats struct {
	Workers    int // configured worker count
	QueueDepth int // configured admission bound

	Queued   int // jobs admitted, not yet dispatched
	InFlight int // jobs currently decoding

	Admitted         uint64 // jobs accepted by admission control
	Completed        uint64 // done callbacks run (decoded or skipped)
	Rejected         uint64 // TrySubmit calls answered ErrBusy
	DeadlineExceeded uint64 // jobs skipped because their context was done
}

// New builds the farm and starts its workers. cfg.Decode must be set.
func New(cfg Config) *Farm {
	if cfg.Decode == nil {
		panic("farm: Config.Decode is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Farm{
		cfg:       cfg,
		admitted:  reg.Counter("farm_jobs_admitted_total"),
		completed: reg.Counter("farm_jobs_completed_total"),
		rejected:  reg.Counter("farm_jobs_rejected_total"),
		deadline:  reg.Counter("farm_jobs_deadline_total"),
		queuedG:   reg.Gauge("farm_jobs_queued_count"),
		inFlightG: reg.Gauge("farm_jobs_inflight_count"),
	}
	f.work = sync.NewCond(&f.mu)
	f.space = sync.NewCond(&f.mu)
	for i := 0; i < cfg.Workers; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.run()
		}()
	}
	return f
}

// TrySubmit admits seg without blocking. done runs exactly once, from a
// worker goroutine, unless an error is returned (ErrBusy when the queue is
// full, ErrClosed after Close). done must be safe to call from another
// goroutine and should hand off quickly.
func (f *Farm) TrySubmit(ctx context.Context, seg backhaul.Segment, done func(Result)) error {
	return f.admit(ctx, seg, done, false)
}

// Submit admits seg, blocking while the queue is full. It returns ErrClosed
// if the farm closes before a slot frees up. Blocking admission is the
// backpressure path for in-process producers, which cannot be told "busy".
func (f *Farm) Submit(ctx context.Context, seg backhaul.Segment, done func(Result)) error {
	return f.admit(ctx, seg, done, true)
}

func (f *Farm) admit(ctx context.Context, seg backhaul.Segment, done func(Result), wait bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return ErrClosed
		}
		if f.queued() < f.cfg.QueueDepth {
			break
		}
		if !wait {
			f.rejected.Inc()
			return ErrBusy
		}
		f.space.Wait()
	}
	f.queue = append(f.queue, job{ctx: ctx, seg: seg, done: done, admitted: obs.SpanFromContext(ctx).Now()})
	f.admitted.Inc()
	f.queuedG.Add(1)
	f.work.Signal()
	return nil
}

// queued returns the waiting-job count; callers hold f.mu.
func (f *Farm) queued() int { return len(f.queue) - f.head }

// pop removes the oldest queued job; callers hold f.mu and have checked
// queued() > 0.
func (f *Farm) pop() job {
	j := f.queue[f.head]
	f.queue[f.head] = job{} // release references early
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	return j
}

// run is one worker loop: pop, decode (or skip a dead job), deliver.
func (f *Farm) run() {
	for {
		f.mu.Lock()
		for f.queued() == 0 && !f.closed {
			f.work.Wait()
		}
		if f.queued() == 0 {
			// closed and drained
			f.mu.Unlock()
			return
		}
		j := f.pop()
		f.mu.Unlock()
		f.queuedG.Add(-1)
		f.inFlightG.Add(1)
		if sp := obs.SpanFromContext(j.ctx); sp != nil {
			sp.Stage("farm_queue", sp.Now()-j.admitted, float64(len(j.seg.Samples)))
		}
		f.space.Signal()

		var res Result
		if err := j.ctx.Err(); err != nil {
			res.Err = err
			f.deadline.Inc()
		} else {
			res.Report, _, res.Err = f.cfg.Decode(j.ctx, j.seg)
		}
		f.inFlightG.Add(-1)
		f.completed.Inc()
		j.done(res)
	}
}

// RegisterHealth registers the farm's saturation check on h under name
// (which must carry the _headroom suffix, e.g. "cloud_farm_headroom"). It
// is a readiness check: a saturated farm is alive and draining, but new
// load is being rejected, so the process should not be sent more.
func (f *Farm) RegisterHealth(h *obs.Health, name string) {
	if h == nil {
		return
	}
	h.RegisterReadiness(name, func() obs.CheckResult {
		f.mu.Lock()
		queued, closed := f.queued(), f.closed
		f.mu.Unlock()
		if closed {
			return obs.Unhealthy("farm closed")
		}
		if queued >= f.cfg.QueueDepth {
			return obs.Unhealthy(fmt.Sprintf("queue saturated at %d/%d", queued, f.cfg.QueueDepth))
		}
		return obs.Healthy(fmt.Sprintf("%d/%d queued", queued, f.cfg.QueueDepth))
	})
}

// Close stops intake and drains: every job admitted before Close ran is
// finished (its done callback runs) before Close returns. Safe to call
// more than once.
func (f *Farm) Close() {
	f.mu.Lock()
	f.closed = true
	f.work.Broadcast()
	f.space.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// Snapshot returns the current counters and gauges. The numbers are read
// from the farm's registry metrics, so Snapshot, /metrics and the shutdown
// dump can never disagree.
func (f *Farm) Snapshot() Stats {
	return Stats{
		Workers:          f.cfg.Workers,
		QueueDepth:       f.cfg.QueueDepth,
		Queued:           int(f.queuedG.Value()),
		InFlight:         int(f.inFlightG.Value()),
		Admitted:         f.admitted.Value(),
		Completed:        f.completed.Value(),
		Rejected:         f.rejected.Value(),
		DeadlineExceeded: f.deadline.Value(),
	}
}
