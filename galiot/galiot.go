// Package galiot is the public API of the GalioT reproduction — a
// cloud-assisted software-defined-radio gateway for low-power IoT that
// detects packets of many radio technologies (including cross-technology
// collisions) with a single universal-preamble correlation and decodes the
// collisions in the cloud with modulation-class "kill" filters wrapped
// around successive interference cancellation.
//
// The package re-exports the pieces a downstream application composes:
//
//   - Technologies: ready-made PHYs (LoRa CSS, XBee GFSK, Z-Wave BFSK,
//     802.15.4-style O-QPSK DSSS, SigFox-class D-BPSK) behind the
//     Technology interface;
//   - NewGateway: front-end → detection → edge decode → backhaul pipeline;
//   - NewCloud: the Algorithm-1 collision decoder as a service;
//   - NewUniversalDetector / NewCollisionDecoder: the two core algorithms
//     standalone, for embedding in other systems.
//
// See the examples/ directory for runnable end-to-end programs and
// EXPERIMENTS.md for the paper-reproduction harness.
package galiot

import (
	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/cloud"
	"repro/internal/detect"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/phy/dbpsk"
	"repro/internal/phy/lora"
	"repro/internal/phy/oqpsk"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/resilience"
	"repro/internal/resilience/wal"
)

// Re-exported core types. The underlying packages carry the full
// documentation; these aliases make the public surface importable from a
// single place.
type (
	// Technology is a complete PHY implementation (modulator, demodulator,
	// preamble, catalog metadata).
	Technology = phy.Technology
	// Frame is a decoded PHY frame with receiver-side estimates.
	Frame = phy.Frame
	// Detector is a packet-detection strategy (energy, universal, matched).
	Detector = detect.Detector
	// Detection is one packet-detection event.
	Detection = detect.Detection
	// Segment is an extracted I/Q block around a detection.
	Segment = detect.Segment
	// Gateway is the GalioT gateway runtime.
	Gateway = gateway.Gateway
	// GatewayConfig assembles a Gateway.
	GatewayConfig = gateway.Config
	// GatewayResult is the outcome of processing one capture.
	GatewayResult = gateway.Result
	// GatewayResilient configures the reconnecting backhaul client
	// (Gateway.RunResilient): redial policy, segment spool, deadlines.
	GatewayResilient = gateway.Resilient
	// RetryPolicy bounds and paces reconnect attempts with deterministic
	// jittered exponential backoff.
	RetryPolicy = resilience.RetryPolicy
	// WALSyncPolicy selects when the crash-durable spool's write-ahead log
	// fsyncs (GatewayResilient.WALSync).
	WALSyncPolicy = wal.SyncPolicy
	// Cloud is the collision-decoding service.
	Cloud = cloud.Service
	// CloudServer is the TCP front of a decode plane: an accept loop and
	// idle-session reaper around a session handler. Get one from
	// Cloud.NewServer (one service) or Fleet.NewServer (the sharded plane
	// galiot-cloud runs); set SessionTimeout/Journal before Listen.
	CloudServer = cloud.Server
	// Farm is the cloud's concurrent decode farm (worker pool + admission
	// control); attach one to a Cloud with its StartFarm method.
	Farm = farm.Farm
	// FarmConfig sizes a Farm.
	FarmConfig = farm.Config
	// FarmStats is a point-in-time snapshot of a Farm.
	FarmStats = farm.Stats
	// Fleet is the decode plane's routing tier: N shared-nothing Cloud
	// shards (one by default) behind one accept loop, each with its own
	// decode farm, sessions routed by a consistent hash of (gateway, epoch).
	Fleet = fleet.Front
	// FleetConfig sizes a Fleet (shard count, per-shard farm).
	FleetConfig = fleet.Config
	// FleetShardStats is one shard's point-in-time view from Fleet.Stats.
	FleetShardStats = fleet.ShardStats
	// CollisionDecoder runs Algorithm 1 (SIC + kill filters).
	CollisionDecoder = cancel.Decoder
	// DecodeStats aggregates what a decode invocation did.
	DecodeStats = cancel.Stats
	// Receiver models the RTL-SDR front-end impairments.
	Receiver = frontend.Receiver
	// FrameReport is a decoded frame on the backhaul wire.
	FrameReport = backhaul.FrameReport
	// FramesReport carries decode results for one segment.
	FramesReport = backhaul.FramesReport
	// ObsRegistry is the metrics registry shared by gateway, farm and cloud;
	// pass one in GatewayConfig.Obs / Cloud.UseObs to aggregate the pipeline
	// onto a single snapshot.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time JSON-marshalable copy of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsTracer records per-segment spans (detect → ship → decode stages).
	ObsTracer = obs.Tracer
	// ObsServer exposes /metrics, /trace/recent, /events/recent, /healthz,
	// /readyz, /fleet/metrics and pprof over HTTP.
	ObsServer = obs.Server
	// ObsJournal is the deterministic ring-buffered event journal behind
	// /events/recent; gateway, cloud server and fleet components record
	// their state transitions onto one.
	ObsJournal = obs.Journal
	// ObsEvent is one recorded (possibly coalesced) journal entry.
	ObsEvent = obs.Event
	// ObsHealth is the component-health registry behind /healthz and
	// /readyz.
	ObsHealth = obs.Health
	// ObsHealthSnapshot is one aggregate health verdict (the /healthz and
	// /readyz body).
	ObsHealthSnapshot = obs.HealthSnapshot
	// ObsCheckStatus is one evaluated health check in a snapshot.
	ObsCheckStatus = obs.CheckStatus
	// ObsCheckResult is one health check's verdict (what a CheckFunc
	// returns; see obs.Healthy / obs.Unhealthy for constructors).
	ObsCheckResult = obs.CheckResult
	// ObsTraceStore assembles finished spans from any number of tracers
	// (local or remote processes) into per-trace trees with tail-based
	// retention; serve it through ObsServer at /trace/tree and
	// /trace/slowest.
	ObsTraceStore = obs.TraceStore
	// ObsTraceStoreConfig sizes an ObsTraceStore (capacity, sampling,
	// slow-trace threshold).
	ObsTraceStoreConfig = obs.TraceStoreConfig
	// ObsTraceTree is one assembled trace: its spans, duration, orphan
	// count and critical path.
	ObsTraceTree = obs.TraceTree
	// ObsSpanSnapshot is one finished span as recorded by a tracer.
	ObsSpanSnapshot = obs.SpanSnapshot
	// ObsFleet merges N metric registries into a fleet-wide rollup
	// (served at /fleet/metrics).
	ObsFleet = obs.Fleet
	// ObsFleetSnapshot is one point-in-time fleet rollup: exact counter
	// sums, labeled gauge extremes, merged histogram sketches.
	ObsFleetSnapshot = obs.FleetSnapshot
	// ObsTarget is one named scrape source for an ObsFleet.
	ObsTarget = obs.Target
)

// SampleRate is the paper's gateway sample rate: the RTL-SDR configured
// for a 1 MHz capture bandwidth at 868 MHz.
const SampleRate = 1e6

// WAL fsync policies for GatewayResilient.WALSync.
const (
	// WALSyncBatched fsyncs every few appends and on rotation/close —
	// the default balance of durability and throughput.
	WALSyncBatched = wal.SyncBatched
	// WALSyncRecord fsyncs after every append: no loss window, one disk
	// round-trip per segment.
	WALSyncRecord = wal.SyncEachRecord
	// WALSyncOff never fsyncs during appends; a power loss can cost the
	// whole page cache, but a process crash costs nothing.
	WALSyncOff = wal.SyncNone
)

// Technologies returns fresh default instances of the three prototype
// technologies evaluated in the paper — LoRa (CSS), XBee (GFSK) and Z-Wave
// (BFSK) — in that order.
func Technologies() []Technology {
	return []Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

// TechnologiesWithDSSS returns the prototype set plus the 802.15.4-style
// O-QPSK DSSS PHY (the Thread/WirelessHART modulation class from Table 1),
// which exercises the KILL-CODES filter.
func TechnologiesWithDSSS() []Technology {
	return append(Technologies(), oqpsk.Default())
}

// TechnologiesAll returns every implemented PHY: the three prototypes
// plus O-QPSK DSSS and the SigFox-class D-BPSK ultra-narrowband PHY — one
// technology per modulation class the kill filters of the paper's Sec. 5
// cover.
func TechnologiesAll() []Technology {
	return append(TechnologiesWithDSSS(), dbpsk.Default())
}

// NewGateway builds a gateway over the given technologies with the paper's
// defaults: an RTL-SDR-class front-end model and the universal-preamble
// detector. Pass a zero GatewayConfig except for the fields you want to
// override.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Techs) == 0 {
		cfg.Techs = Technologies()
	}
	if cfg.Frontend == nil {
		cfg.Frontend = frontend.Ideal(SampleRate)
	}
	return gateway.New(cfg)
}

// NewCloud builds the cloud decoding service over the given technologies
// (default: the prototype set).
func NewCloud(techs ...Technology) *Cloud {
	if len(techs) == 0 {
		techs = Technologies()
	}
	return cloud.NewService(techs)
}

// NewFleet builds a decode plane (default: the prototype technology set,
// one shard). Call its NewServer method to accept gateway sessions — or
// HandleConn with any byte stream — and Close it to drain the shard farms.
// Per-shard farm_* series live on each shard's private registry: feed
// Targets to an ObsFleet to read them per target at /fleet/metrics.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Techs) == 0 {
		cfg.Techs = Technologies()
	}
	return fleet.New(cfg)
}

// NewUniversalDetector builds the universal-preamble detector of Sec. 4
// over the given technologies at the gateway sample rate.
func NewUniversalDetector(techs []Technology, threshold float64) (*detect.UniversalDetector, error) {
	return detect.NewUniversal(techs, SampleRate, threshold)
}

// NewCollisionDecoder builds the Algorithm-1 collision decoder of Sec. 5.
func NewCollisionDecoder(techs []Technology) *CollisionDecoder {
	return cancel.NewDecoder(techs, SampleRate)
}

// NewSICBaseline builds the strict power-ordered SIC baseline the paper
// compares against.
func NewSICBaseline(techs []Technology) *CollisionDecoder {
	return cancel.NewSIC(techs, SampleRate)
}

// NewObsRegistry builds an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTracer builds a segment tracer keeping the most recent ringSize
// spans (0 = default). Callers running in real time should SetClock it to a
// wall-clock nanosecond source; the default clock is a deterministic step
// counter suited to simulations and tests.
func NewObsTracer(ringSize int) *ObsTracer { return obs.NewTracer(ringSize) }

// NewObsTraceStore builds a trace-assembly store; SetSink the tracers that
// should feed it with store.Ingest. A zero config gets the documented
// defaults (512 traces retained, 1-in-16 head sampling plus every
// anomalous trace).
func NewObsTraceStore(cfg ObsTraceStoreConfig) *ObsTraceStore {
	return obs.NewTraceStore(cfg)
}

// ParseTraceID parses a trace ID in decimal or 0x-hex form (the formats
// the /trace/tree route and galiot-trace accept).
func ParseTraceID(s string) (uint64, error) { return obs.ParseTraceID(s) }

// NewObsJournal builds an event journal keeping the most recent ringSize
// events (0 = default). Like the tracer, its default clock is a
// deterministic step counter; SetClock it for wall-clock timestamps.
func NewObsJournal(ringSize int) *ObsJournal { return obs.NewJournal(ringSize) }

// NewObsHealth builds an empty component-health registry.
func NewObsHealth() *ObsHealth { return obs.NewHealth() }

// NewObsFleet builds a fleet aggregator over the given scrape targets.
func NewObsFleet(targets ...ObsTarget) *ObsFleet { return obs.NewFleet(targets...) }

// ObsRegistryTarget makes an in-process registry a fleet scrape target.
func ObsRegistryTarget(name string, r *ObsRegistry) ObsTarget {
	return obs.RegistryTarget(name, r)
}

// DefaultFrontend returns the paper's prototype front-end model: 1 MHz,
// 8-bit quantization, DC offset, IQ imbalance, 500 Hz tuner error.
func DefaultFrontend() *Receiver { return frontend.Default() }

// IdealFrontend returns a distortion-free front-end for algorithm studies.
func IdealFrontend() *Receiver { return frontend.Ideal(SampleRate) }
