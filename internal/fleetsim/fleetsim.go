// Package fleetsim is the in-process fleet simulator: it drives hundreds
// of real gateway.RunResilient clients — full detection pipeline, real
// backhaul wire protocol, real reconnect machinery — against a sharded
// decode plane (internal/fleet) over loopback TCP, and reduces what
// happened into one structured Report.
//
// The simulator exists to answer capacity questions the single-connection
// tests cannot: does decode throughput scale with the shard count, do the
// admission queues hold under a fleet's worth of concurrent sessions, and
// does any segment ever reach two shards. The workload is generated once
// (GenWorkload, deterministic from a seed, built on internal/sim's
// duty-cycled traffic model) and reused across runs, so a 1-shard and a
// 4-shard run decode byte-identical captures and their reports are
// directly comparable.
//
// Determinism: the library never reads the wall clock itself — Config.Clock
// injects it (commands and tests pass time.Now().UnixNano). Everything
// else — traffic, routing, retry jitter — replays from Config.Seed.
package fleetsim

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config parameterizes one fleet simulation.
type Config struct {
	// Gateways is the fleet size (default 8).
	Gateways int
	// Captures is how many captures each gateway processes (default 1).
	Captures int
	// CaptureSamples is each capture's length in samples (default 1<<15).
	CaptureSamples int
	// MeanGapMs is the mean idle gap between a technology's transmissions
	// within one capture, in milliseconds (default 5). Smaller = denser
	// traffic = more segments per capture.
	MeanGapMs float64
	// Shards, Workers, QueueDepth size the decode plane (fleet.Config
	// semantics; Workers and QueueDepth are per shard). QueueDepth
	// defaults high (256) because busy-rejected segments are retired, not
	// retried — a capacity study wants zero rejects unless it is
	// explicitly probing collapse.
	Shards, Workers, QueueDepth int
	// Window pins every gateway's shipping window; 0 lets them auto-size
	// from the hello ack's capacity hint.
	Window int
	// Seed drives workload generation and retry jitter (default 1).
	Seed uint64
	// Techs is the technology set (default XBee + Z-Wave — short
	// airtimes, so captures stay small).
	Techs []phy.Technology
	// SNRMin/SNRMax bound the per-packet SNR draw (defaults 12..18 dB).
	SNRMin, SNRMax float64
	// Decode overrides the shards' decode function (scaling studies
	// inject a synthetic service time). Nil decodes for real.
	Decode farm.DecodeFunc
	// SpoolFirst runs the outage-recovery drain scenario: the plane does
	// not accept sessions until every gateway has detected its whole
	// workload into the resilient spool, then the fleet reconnects at
	// once and the plane absorbs the backlog. This separates the fleet's
	// (CPU-bound) detection phase from the decode drain, so Throughput
	// measures plane capacity rather than single-host detection speed —
	// it is the mode the shard-scaling soak uses.
	SpoolFirst bool
	// Clock supplies monotonic-enough wall time in nanoseconds for
	// latency and throughput accounting. Required (pass
	// func() int64 { return time.Now().UnixNano() }).
	Clock func() int64
	// Logf receives plane diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Journal receives the plane's shard lifecycle events (fleet.Config
	// semantics). Nil disables event recording.
	Journal *obs.Journal
	// Health receives the plane's shard liveness and farm headroom checks
	// (fleet.Config semantics). Nil skips registration.
	Health *obs.Health
	// OnPlane observes the decode plane's scrape targets as soon as the
	// plane is up, before any session is accepted — commands feed them to
	// a live obs.Fleet so -obs-addr serves /fleet/metrics during the run.
	// Nil skips the callback.
	OnPlane func(targets []obs.Target)
	// Traces, when set, traces the whole run end to end: every gateway
	// shares one site="gateway" tracer, the decode plane gets a
	// site="cloud" tracer, and both sink their finished spans into this
	// store, where the wire-propagated trace IDs stitch each segment's
	// gateway and cloud spans into one tree. Report.Trace summarizes the
	// assembled traces. Nil runs untraced.
	Traces *obs.TraceStore
}

// withDefaults validates the config and fills zero fields in, returning
// the completed copy (value semantics keep Config free of lock concerns).
func withDefaults(c Config) (Config, error) {
	if c.Clock == nil {
		return c, fmt.Errorf("fleetsim: Config.Clock is required (inject time.Now().UnixNano)")
	}
	if c.Gateways <= 0 {
		c.Gateways = 8
	}
	if c.Captures <= 0 {
		c.Captures = 1
	}
	if c.CaptureSamples <= 0 {
		c.CaptureSamples = 1 << 15
	}
	if c.MeanGapMs <= 0 {
		c.MeanGapMs = 5
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Techs) == 0 {
		c.Techs = defaultTechs()
	}
	if c.SNRMin == 0 && c.SNRMax == 0 {
		c.SNRMin, c.SNRMax = 12, 18
	}
	return c, nil
}

// GatewayLoad is one gateway's share of the workload.
type GatewayLoad struct {
	ID       string
	Epoch    uint64
	Captures [][]complex128
	Packets  int // ground-truth transmissions across the captures
}

// Workload is a pre-rendered fleet workload: generate once, run many
// times. Runs over the same Workload decode byte-identical captures.
type Workload struct {
	Seed           uint64
	SampleRate     float64
	CaptureSamples int
	Gateways       []GatewayLoad
}

// Packets returns the ground-truth transmission count across the fleet.
func (w *Workload) Packets() int {
	n := 0
	for i := range w.Gateways {
		n += w.Gateways[i].Packets
	}
	return n
}

// GenWorkload renders the fleet's captures deterministically from
// cfg.Seed: every gateway gets its own rng lane, so the workload is
// reproducible and per-gateway traffic is independent.
func GenWorkload(cfg Config) (*Workload, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	const fs = 1e6
	wl := &Workload{Seed: cfg.Seed, SampleRate: fs, CaptureSamples: cfg.CaptureSamples}
	root := rng.New(cfg.Seed)
	for i := 0; i < cfg.Gateways; i++ {
		gen := root.Split(uint64(i) + 1)
		load := GatewayLoad{
			ID:    fmt.Sprintf("simgw-%04d", i),
			Epoch: uint64(i) + 1,
		}
		for j := 0; j < cfg.Captures; j++ {
			sc, err := sim.GenTraffic(sim.TrafficConfig{
				Techs:      cfg.Techs,
				SampleRate: fs,
				Duration:   cfg.CaptureSamples,
				MeanGap:    cfg.MeanGapMs / 1e3,
				SNRMin:     cfg.SNRMin,
				SNRMax:     cfg.SNRMax,
				PayloadMin: 6,
				PayloadMax: 14,
			}, gen.Split(uint64(j)+1))
			if err != nil {
				return nil, err
			}
			load.Captures = append(load.Captures, sc.Capture)
			load.Packets += len(sc.Packets)
		}
		wl.Gateways = append(wl.Gateways, load)
	}
	return wl, nil
}

func defaultTechs() []phy.Technology {
	return []phy.Technology{xbee.Default(), zwave.Default()}
}

// Quantiles summarizes a latency distribution, in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	Max float64 `json:"max_ms"`
}

// ShardReport is one shard's slice of a run.
type ShardReport struct {
	Shard      int     `json:"shard"`
	Sessions   uint64  `json:"sessions"`
	Decoded    uint64  `json:"decoded"`    // decode invocations on this shard
	Admitted   uint64  `json:"admitted"`   // segments the admission queue accepted
	Completed  uint64  `json:"completed"`  // segments fully decoded and replied
	Rejected   uint64  `json:"rejected"`   // busy rejects (queue full)
	Throughput float64 `json:"throughput"` // decoded segments per second of this shard's busy window
}

// Report is the structured outcome of one fleet run.
type Report struct {
	Seed     uint64 `json:"seed"`
	Gateways int    `json:"gateways"`
	Captures int    `json:"captures_per_gateway"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers_per_shard"`

	DurationMillis float64 `json:"duration_ms"` // whole run, first dial to last gateway exit

	PacketsOffered  int    `json:"packets_offered"`  // ground-truth transmissions
	SegmentsDecoded uint64 `json:"segments_decoded"` // decode invocations across shards
	FramesReported  uint64 `json:"frames_reported"`  // frames delivered back to gateways
	Duplicates      uint64 `json:"duplicates"`       // identical segments decoded more than once
	Rejected        uint64 `json:"rejected"`         // busy rejects across shards
	GatewayErrors   int    `json:"gateway_errors"`   // RunResilient calls that returned an error

	// Throughput is decode-plane throughput: segments decoded per second
	// of the plane's busy window (first decode start to last decode end).
	// The busy window excludes the fleet's detection warm-up, so the
	// number isolates what sharding actually changes.
	Throughput float64 `json:"throughput_segs_per_sec"`
	// Capacity is the plane's aggregate decode capacity: the sum of the
	// per-shard throughputs, each measured over that shard's own busy
	// window. Unlike Throughput it is not diluted by cross-shard load
	// imbalance or straggling arrivals, so it is the number that should
	// scale linearly with the shard count.
	Capacity float64 `json:"capacity_segs_per_sec"`

	// PeakSessions is the highest cloud_sessions_active_count sampled
	// during the run; FinalSessions is the gauge after every gateway
	// disconnected (should be 0).
	PeakSessions  int64 `json:"peak_sessions"`
	FinalSessions int64 `json:"final_sessions"`

	Latency Quantiles `json:"latency"` // capture accepted -> report received

	PerShard []ShardReport `json:"per_shard"`

	// Rollup is the fleet-wide metrics aggregation over the plane registry
	// and every shard farm's private registry, collected after the drain:
	// the same view /fleet/metrics serves live, frozen into the report.
	Rollup *obs.FleetSnapshot `json:"rollup,omitempty"`

	// Trace summarizes the run's assembled trace trees when Config.Traces
	// was set.
	Trace *TraceStats `json:"trace,omitempty"`
}

// TraceStats reduces the run's TraceStore to the numbers the fleet soak
// gates on: every retained trace should be fully stitched (zero orphans)
// and at least one should span both processes.
type TraceStats struct {
	Traces   int `json:"traces"`   // retained traces
	Spans    int `json:"spans"`    // spans across those traces
	Orphans  int `json:"orphans"`  // spans whose parent never arrived
	Replayed int `json:"replayed"` // traces carrying a replay/wal_replay stage
	Stitched int `json:"stitched"` // traces with spans from both sites
}

// decodeProbe wraps every shard's decode function: it counts invocations
// per shard, fingerprints each segment to catch the same segment being
// decoded twice (on any shard — the shared-nothing invariant), and records
// the plane's busy window.
type decodeProbe struct {
	clock func() int64
	// decode, when set, replaces the shards' real decoder (Config.Decode).
	decode farm.DecodeFunc

	mu         sync.Mutex
	seen       map[segKey]int
	perShard   []uint64
	duplicates uint64
	firstStart int64
	lastEnd    int64
	// Per-shard busy windows: a shard's capacity is its decode count over
	// its own first-start..last-end span, so one shard's stragglers do not
	// dilute another's measured rate.
	shardFirst []int64
	shardLast  []int64
}

// segKey fingerprints one shipped segment. Start and length come straight
// from the segment; the sample hash disambiguates different gateways'
// segments that happen to share a timeline position.
type segKey struct {
	start   int64
	samples int
	hash    uint64
}

func keyOf(seg backhaul.Segment) segKey {
	// FNV-1a over the first 64 samples' real parts, quantized; enough to
	// tell any two distinct noise floors apart.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	n := len(seg.Samples)
	if n > 64 {
		n = 64
	}
	for i := 0; i < n; i++ {
		v := uint64(int64(real(seg.Samples[i]) * 1e9))
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= prime64
		}
	}
	return segKey{start: seg.Start, samples: len(seg.Samples), hash: h}
}

func (p *decodeProbe) wrap(shard int, next farm.DecodeFunc) farm.DecodeFunc {
	if p.decode != nil {
		next = p.decode
	}
	return func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		start := p.clock()
		rep, st, err := next(ctx, seg)
		end := p.clock()
		key := keyOf(seg)
		p.mu.Lock()
		p.perShard[shard]++
		p.seen[key]++
		if p.seen[key] > 1 {
			p.duplicates++
		}
		if p.firstStart == 0 || start < p.firstStart {
			p.firstStart = start
		}
		if end > p.lastEnd {
			p.lastEnd = end
		}
		if p.shardFirst[shard] == 0 || start < p.shardFirst[shard] {
			p.shardFirst[shard] = start
		}
		if end > p.shardLast[shard] {
			p.shardLast[shard] = end
		}
		p.mu.Unlock()
		return rep, st, err
	}
}

// Run executes one fleet simulation over a pre-generated workload. The
// returned error covers harness failures (no listener, bad config);
// per-gateway session errors are reported, not fatal.
func Run(cfg Config, wl *Workload) (*Report, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	if len(wl.Gateways) == 0 {
		return nil, fmt.Errorf("fleetsim: empty workload")
	}

	probe := &decodeProbe{
		clock:      cfg.Clock,
		decode:     cfg.Decode,
		seen:       make(map[segKey]int),
		perShard:   make([]uint64, cfg.Shards),
		shardFirst: make([]int64, cfg.Shards),
		shardLast:  make([]int64, cfg.Shards),
	}
	// One tracer per process role: the whole fleet shares the gateway-side
	// tracer (spans are site-salted per gateway ID at mint time, so sharing
	// the tracer only shares the ring) and the plane gets its own. Both
	// sink into the shared store, which is what stitches the two sides.
	var gwTracer, cloudTracer *obs.Tracer
	if cfg.Traces != nil {
		gwTracer = obs.NewTracer(0)
		gwTracer.SetClock(cfg.Clock)
		gwTracer.SetSite("gateway")
		gwTracer.SetSink(cfg.Traces.Ingest)
		cloudTracer = obs.NewTracer(0)
		cloudTracer.SetClock(cfg.Clock)
		cloudTracer.SetSite("cloud")
		cloudTracer.SetSink(cfg.Traces.Ingest)
	}
	front, err := fleet.New(fleet.Config{
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Techs:      cfg.Techs,
		WrapDecode: probe.wrap,
		Logf:       cfg.Logf,
		Journal:    cfg.Journal,
		Health:     cfg.Health,
		Tracer:     cloudTracer,
	})
	if err != nil {
		return nil, err
	}
	if cfg.OnPlane != nil {
		cfg.OnPlane(front.Targets())
	}
	// The listener binds immediately so gateways can dial (their
	// connections queue in the TCP accept backlog), but in SpoolFirst mode
	// Serve — and with it every session — starts only once the whole
	// fleet has spooled its workload.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		front.Close()
		return nil, err
	}
	srv := front.NewServer()
	addr := ln.Addr().String()
	activeGauge := front.Registry().Gauge("cloud_sessions_active_count")

	gws := make([]*gateway.Gateway, len(wl.Gateways))
	for gi := range wl.Gateways {
		g, err := gateway.New(gateway.Config{
			ID:       wl.Gateways[gi].ID,
			Techs:    cfg.Techs,
			Frontend: frontend.Ideal(wl.SampleRate),
			Window:   cfg.Window,
			Tracer:   gwTracer,
		})
		if err != nil {
			_ = ln.Close()
			front.Close()
			return nil, err
		}
		gws[gi] = g
	}

	var serveWG sync.WaitGroup
	serve := func() {
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			// A closed listener returns nil; anything else surfaces
			// through the plane diagnostics.
			if err := srv.Serve(ln); err != nil && cfg.Logf != nil {
				cfg.Logf("fleetsim: serve: %v", err)
			}
		}()
	}
	if !cfg.SpoolFirst {
		serve()
	} else {
		// Gate: start accepting once every gateway has pushed its whole
		// capture list through detection AND the fleet-wide shipped count
		// has stopped moving (the end-of-stream Flush still produces
		// segments after the last capture returns), emulating the cloud
		// coming back after an outage to a fully spooled fleet.
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			total := len(wl.Gateways) * cfg.Captures
			lastShipped, stable := -1, 0
			for stable < 20 {
				done, shipped := 0, 0
				for _, g := range gws {
					st := g.Stats()
					done += st.CapturesProcessed
					shipped += st.SegmentsShipped
				}
				if done >= total && shipped == lastShipped {
					stable++
				} else {
					stable = 0
				}
				lastShipped = shipped
				time.Sleep(10 * time.Millisecond)
			}
			serve()
		}()
	}

	// Session-gauge sampler: cheap poll loop, joined before reporting.
	var peak int64
	samplerQuit := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-samplerQuit:
				return
			default:
			}
			if v := activeGauge.Value(); v > peak {
				peak = v
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	start := cfg.Clock()
	var (
		wg        sync.WaitGroup
		collectMu sync.Mutex
		latencies []int64
		frames    uint64
		gwErrors  int
	)
	for gi := range wl.Gateways {
		load := &wl.Gateways[gi]
		g := gws[gi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, nFrames, err := runOneGateway(cfg, wl, g, load, addr)
			collectMu.Lock()
			latencies = append(latencies, lat...)
			frames += nFrames
			if err != nil {
				gwErrors++
			}
			collectMu.Unlock()
		}()
	}
	wg.Wait()
	end := cfg.Clock()
	close(samplerQuit)
	samplerWG.Wait()
	finalSessions := activeGauge.Value()

	// Every gateway has its replies; stop accepting, then drain the farms.
	if err := srv.Close(); err != nil && cfg.Logf != nil {
		cfg.Logf("fleetsim: server close: %v", err)
	}
	serveWG.Wait()
	stats := front.Stats()
	// Freeze the fleet rollup while the registries still hold the run's
	// final numbers (Stats above refreshed the re-exported gauges).
	rollup := obs.NewFleet(front.Targets()...).Collect()
	front.Close()

	rep := &Report{
		Seed:           wl.Seed,
		Gateways:       len(wl.Gateways),
		Captures:       cfg.Captures,
		Shards:         cfg.Shards,
		Workers:        cfg.Workers,
		DurationMillis: float64(end-start) / 1e6,
		PacketsOffered: wl.Packets(),
		FramesReported: frames,
		GatewayErrors:  gwErrors,
		PeakSessions:   peak,
		FinalSessions:  finalSessions,
		Latency:        quantiles(latencies),
		Rollup:         &rollup,
	}
	probe.mu.Lock()
	rep.Duplicates = probe.duplicates
	for _, n := range probe.perShard {
		rep.SegmentsDecoded += n
	}
	window := float64(probe.lastEnd-probe.firstStart) / 1e9
	shardWindows := make([]float64, cfg.Shards)
	for i := range shardWindows {
		shardWindows[i] = float64(probe.shardLast[i]-probe.shardFirst[i]) / 1e9
	}
	probe.mu.Unlock()
	if window > 0 {
		rep.Throughput = float64(rep.SegmentsDecoded) / window
	}
	for i, st := range stats {
		sr := ShardReport{
			Shard:     st.Shard,
			Sessions:  st.Sessions,
			Decoded:   probe.perShard[i],
			Admitted:  st.Farm.Admitted,
			Completed: st.Farm.Completed,
			Rejected:  st.Farm.Rejected,
		}
		if shardWindows[i] > 0 {
			sr.Throughput = float64(sr.Decoded) / shardWindows[i]
		}
		rep.Capacity += sr.Throughput
		rep.Rejected += st.Farm.Rejected
		rep.PerShard = append(rep.PerShard, sr)
	}
	if cfg.Traces != nil {
		rep.Trace = traceStats(cfg.Traces)
	}
	return rep, nil
}

// traceStats reduces the store's assembled trees to the report summary.
// A trace is stitched when spans from both the gateway-side tracer and
// the plane's tracer landed on the same wire-propagated trace ID.
func traceStats(store *obs.TraceStore) *TraceStats {
	st := &TraceStats{}
	for _, tree := range store.Trees() {
		st.Traces++
		st.Spans += len(tree.Spans)
		st.Orphans += tree.Orphans
		if tree.Replayed {
			st.Replayed++
		}
		var gw, cl bool
		for _, sp := range tree.Spans {
			switch {
			case strings.HasPrefix(sp.Kind, "gateway"):
				gw = true
			case strings.HasPrefix(sp.Kind, "cloud"):
				cl = true
			}
		}
		if gw && cl {
			st.Stitched++
		}
	}
	return st
}

// runOneGateway drives one real resilient gateway session over loopback
// TCP and returns its per-capture report latencies (nanoseconds) and the
// frame count it received.
func runOneGateway(cfg Config, wl *Workload, g *gateway.Gateway, load *GatewayLoad, addr string) ([]int64, uint64, error) {
	// acceptNs[j] is when the pipeline accepted capture j; reports map
	// back through the gateway's absolute sample clock.
	acceptNs := make([]int64, len(load.Captures))
	var acceptMu sync.Mutex
	captures := make(chan []complex128)
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		defer close(captures)
		for j, c := range load.Captures {
			captures <- c
			now := cfg.Clock()
			acceptMu.Lock()
			acceptNs[j] = now
			acceptMu.Unlock()
		}
	}()

	var (
		repMu     sync.Mutex
		latencies []int64
		frames    uint64
	)
	err := g.RunResilient(gateway.Resilient{
		Dial: func() (io.ReadWriteCloser, error) {
			return net.Dial("tcp", addr)
		},
		Retry: resilience.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Seed:        load.Epoch,
		},
		SpoolCapacity: 2 * len(load.Captures) * 8,
		Epoch:         load.Epoch,
	}, captures, func(r backhaul.FramesReport) {
		now := cfg.Clock()
		idx := int(r.SegmentStart) / wl.CaptureSamples
		if idx < 0 {
			idx = 0
		}
		if idx >= len(acceptNs) {
			idx = len(acceptNs) - 1
		}
		acceptMu.Lock()
		t0 := acceptNs[idx]
		acceptMu.Unlock()
		repMu.Lock()
		if t0 > 0 && now > t0 {
			latencies = append(latencies, now-t0)
		}
		frames += uint64(len(r.Frames))
		repMu.Unlock()
	})
	feedWG.Wait()
	return latencies, frames, err
}

// quantiles reduces nanosecond latencies to the report's summary.
func quantiles(ns []int64) Quantiles {
	if len(ns) == 0 {
		return Quantiles{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(ns)-1))
		return float64(ns[i]) / 1e6
	}
	return Quantiles{P50: at(0.50), P95: at(0.95), Max: float64(ns[len(ns)-1]) / 1e6}
}
