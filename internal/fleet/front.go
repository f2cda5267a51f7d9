package fleet

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/backhaul"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/phy"
)

// Config assembles a Front.
type Config struct {
	// Shards is the decode-shard count (default 1). Each shard is a full
	// cloud.Service with its own decode farm and its own replay dedup
	// cache — shared-nothing by construction.
	Shards int
	// Workers is each shard's decode-farm worker count (zero takes the
	// farm's default).
	Workers int
	// QueueDepth is each shard's admission-queue bound (zero takes the
	// farm's default). The plane's aggregate capacity — the sum of the
	// shard farms' queue depths — is advertised to gateways in the hello
	// ack.
	QueueDepth int
	// Techs is the technology set every shard decodes. Required.
	Techs []phy.Technology
	// Obs is the plane-wide registry: the shards' cloud_* series, the
	// front's cloud_fleet_* / cloud_shard<i>_* series and each shard
	// farm's series as cloud_shard<i>_farm_* land here. Nil creates a
	// private registry.
	Obs *obs.Registry
	// Tracer receives per-segment decode spans from every shard (nil
	// disables tracing).
	Tracer *obs.Tracer
	// Logf receives front and shard diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// WrapDecode, when set, wraps each shard's real collision decoder: the
	// test seam for the fleet tests, which count decodes per shard, catch
	// cross-shard duplicates and substitute synthetic work here.
	WrapDecode func(shard int, next farm.DecodeFunc) farm.DecodeFunc
	// Journal records shard lifecycle events: fleet_shard_attach as each
	// shard comes up in New, fleet_shard_detach as Close drains it. Nil
	// disables event recording.
	Journal *obs.Journal
	// Health receives the plane's checks: fleet_shard<i>_liveness per
	// shard (unhealthy once the shard is detached) and each shard farm's
	// cloud_shard<i>_headroom readiness check. Nil skips registration.
	Health *obs.Health
}

// shard is one shared-nothing decode unit plus its front-side metrics.
type shard struct {
	svc  *cloud.Service
	farm *farm.Farm
	// detached flips when Close drains the shard; the shard's liveness
	// check reads it.
	detached atomic.Bool

	sessions *obs.Counter // cloud_shard<i>_sessions_total
	active   *obs.Gauge   // cloud_shard<i>_sessions_active_count
}

// Front is the routing tier of the sharded decode plane. It owns no
// listener: plug HandleConn into a cloud.Server (NewServer does exactly
// that) or call it directly with any byte stream.
type Front struct {
	cfg  Config
	ring *Ring
	reg  *obs.Registry

	shards   []*shard
	capacity int // sum of the shard farms' queue depths, the hello-ack aggregate hint

	sessionsTotal *obs.Counter // cloud_fleet_sessions_total
	shardsGauge   *obs.Gauge   // cloud_fleet_shards_count
}

// New builds the plane: ring, shards, farms. Callers must Close it to
// drain the shard farms.
func New(cfg Config) (*Front, error) {
	if len(cfg.Techs) == 0 {
		return nil, fmt.Errorf("fleet: no technologies configured")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Front{
		cfg:           cfg,
		ring:          NewRing(cfg.Shards, DefaultVNodes),
		reg:           reg,
		sessionsTotal: reg.Counter("cloud_fleet_sessions_total"),
		shardsGauge:   reg.Gauge("cloud_fleet_shards_count"),
	}
	f.shardsGauge.Set(int64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		svc := cloud.NewService(cfg.Techs)
		svc.UseObs(reg, cfg.Tracer)
		if cfg.Logf != nil {
			idx := i
			svc.Logf = func(format string, args ...any) {
				cfg.Logf("shard %d: "+format, append([]any{idx}, args...)...)
			}
		}
		dec := svc.DecodeFunc()
		if cfg.WrapDecode != nil {
			dec = cfg.WrapDecode(i, dec)
		}
		// The farm registers its fixed farm_* names through a prefixed
		// view, so each shard keeps its own counters (Stats reads them)
		// on the one plane registry.
		p := fmt.Sprintf("cloud_shard%d_", i)
		fm := svc.StartFarm(farm.Config{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			Obs:        reg.Prefixed(p),
			Decode:     dec,
		})
		f.capacity += fm.Snapshot().QueueDepth
		sh := &shard{
			svc:      svc,
			farm:     fm,
			sessions: reg.Counter(p + "sessions_total"),
			active:   reg.Gauge(p + "sessions_active_count"),
		}
		f.shards = append(f.shards, sh)
		cfg.Journal.Record("fleet_shard_attach", int64(i))
		if cfg.Health != nil {
			cfg.Health.Register(fmt.Sprintf("fleet_shard%d_liveness", i), func() obs.CheckResult {
				if sh.detached.Load() {
					return obs.Unhealthy("shard detached")
				}
				return obs.Healthy(fmt.Sprintf("%d sessions active", sh.active.Value()))
			})
			fm.RegisterHealth(cfg.Health, fmt.Sprintf("cloud_shard%d_headroom", i))
		}
	}
	return f, nil
}

// Registry returns the plane-wide metric registry.
func (f *Front) Registry() *obs.Registry { return f.reg }

// Ring returns the routing ring (immutable).
func (f *Front) Ring() *Ring { return f.ring }

// Shards returns the shard count.
func (f *Front) Shards() int { return len(f.shards) }

// Capacity returns the plane's aggregate admission capacity (the hello-ack
// hint): the sum of the shard farms' queue depths.
func (f *Front) Capacity() int { return f.capacity }

// HandleConn serves one gateway connection: read the hello, route the
// session to its shard by (gateway, epoch), and let the shard's service
// run the session to completion. The hello ack the shard sends carries the
// plane's aggregate capacity so the gateway can size its window for the
// fleet, while Window/Workers remain the landing shard's own numbers — a
// session's in-flight ceiling is bounded by the shard that actually
// decodes it.
func (f *Front) HandleConn(rw io.ReadWriter) error {
	conn := backhaul.NewConn(rw)
	conn.SetMetrics(backhaul.NewConnMetrics(f.reg))
	hello, err := cloud.ReadHello(conn)
	if err != nil {
		return err
	}
	idx := f.ring.Lookup(hello.GatewayID, hello.Epoch)
	sh := f.shards[idx]
	f.sessionsTotal.Inc()
	sh.sessions.Inc()
	sh.active.Add(1)
	defer sh.active.Add(-1)
	if f.cfg.Logf != nil {
		f.cfg.Logf("routing %s (epoch %d) to shard %d/%d", hello.GatewayID, hello.Epoch, idx, len(f.shards))
	}
	hint := backhaul.HelloAck{Shards: len(f.shards), Capacity: f.capacity}
	return sh.svc.ServeHello(conn, hello, hint)
}

// NewServer wraps the front in a TCP server: accepted connections flow
// through HandleConn, and the server's own metrics (accept retries, active
// sessions, reaped sessions) land on the plane registry.
func (f *Front) NewServer() *cloud.Server {
	return &cloud.Server{Handler: f.HandleConn, Obs: f.reg, Logf: f.cfg.Logf}
}

// ShardStats is one shard's point-in-time view.
type ShardStats struct {
	Shard    int        `json:"shard"`
	Sessions uint64     `json:"sessions"` // sessions routed here so far
	Active   int64      `json:"active"`   // sessions currently being served
	Farm     farm.Stats `json:"farm"`
}

// Stats snapshots every shard (index order). The same farm series are
// on the plane registry as cloud_shard<i>_farm_*.
func (f *Front) Stats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i, sh := range f.shards {
		out[i] = ShardStats{
			Shard:    i,
			Sessions: sh.sessions.Value(),
			Active:   sh.active.Value(),
			Farm:     sh.farm.Snapshot(),
		}
	}
	return out
}

// Close drains every shard farm: intake stops, every admitted segment
// finishes. Close the accepting server first.
func (f *Front) Close() {
	for i, sh := range f.shards {
		sh.svc.Close()
		if sh.detached.CompareAndSwap(false, true) {
			f.cfg.Journal.Record("fleet_shard_detach", int64(i))
		}
	}
}
