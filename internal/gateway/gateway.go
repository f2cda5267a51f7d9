// Package gateway implements the GalioT gateway runtime: the pipeline that
// takes front-end captures through universal-preamble detection, attempts
// cheap edge decoding for uncollided packets, and ships everything it
// cannot resolve locally to the cloud over the backhaul protocol
// (paper Sec. 3-4, including the "Edge vs. the Cloud" policy: I/Q samples
// are decoded at the edge assuming no collision, and shipped only when
// that fails).
package gateway

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/detect"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/resilience"
)

// DefaultWindow is how many shipped segments a session keeps in flight
// unacknowledged before blocking.
const DefaultWindow = 8

// Config assembles a gateway.
type Config struct {
	ID         string           // gateway identifier for the hello handshake
	Techs      []phy.Technology // technologies to detect and decode
	Frontend   *frontend.Receiver
	EdgeDecode bool // try single-technology decode locally first
	// Window bounds the unacknowledged segments a session pipelines
	// (default DefaultWindow). The cloud's hello ack may shrink it.
	Window int
	// Obs receives the gateway's metrics (gateway_* and, with a WAL, wal_*
	// series). Nil creates a private registry; Stats reads from it either
	// way.
	Obs *obs.Registry
	// Tracer enables per-segment trace spans (detect, edge decode, window
	// wait, encode+ship stages). Nil disables tracing at the cost of one
	// branch per stage.
	Tracer *obs.Tracer
	// Journal records resilience state transitions (session establish/die,
	// redial backoff, degraded-mode enter/exit, busy-reject bursts) for
	// /events/recent and fault dumps. Nil disables event recording.
	Journal *obs.Journal
	// Health receives the gateway's health checks when RunResilient starts:
	// gateway_backhaul_connected (liveness) and gateway_spool_headroom
	// (readiness). Nil skips registration.
	Health *obs.Health
}

// Stats counts what a gateway did. It is assembled on demand from the
// gateway's metric registry (the gateway_* counters), kept as a struct for
// callers and log lines that predate the registry.
type Stats struct {
	CapturesProcessed int
	Detections        int
	SegmentsShipped   int
	SegmentsResolved  int // resolved at the edge, not shipped
	EdgeFrames        int
	BadReports        int // cloud replies the gateway could not parse
	BusyRejects       int // segments the cloud rejected with a busy message
	WireBytes         int // backhaul bytes actually sent
	RawBytes          int // what streaming every capture raw (cu8) would have cost
}

// metrics is the gateway's registry-backed counter set; one atomic add per
// event, no lock (the registry lock is only taken at wiring time).
type metrics struct {
	captures    *obs.Counter
	detections  *obs.Counter
	shipped     *obs.Counter
	resolved    *obs.Counter
	edgeFrames  *obs.Counter
	badReports  *obs.Counter
	busyRejects *obs.Counter
	wireBytes   *obs.Counter
	rawBytes    *obs.Counter
	techFrames  map[string]*obs.Counter // per-technology edge frames, read-only after wiring
}

func newMetrics(reg *obs.Registry, techs []phy.Technology) metrics {
	m := metrics{
		captures:    reg.Counter("gateway_captures_processed_total"),
		detections:  reg.Counter("gateway_segments_detected_total"),
		shipped:     reg.Counter("gateway_segments_shipped_total"),
		resolved:    reg.Counter("gateway_segments_resolved_total"),
		edgeFrames:  reg.Counter("gateway_edge_frames_total"),
		badReports:  reg.Counter("gateway_bad_reports_total"),
		busyRejects: reg.Counter("gateway_busy_rejects_total"),
		wireBytes:   reg.Counter("gateway_wire_bytes_total"),
		rawBytes:    reg.Counter("gateway_raw_bytes_total"),
		techFrames:  make(map[string]*obs.Counter, len(techs)),
	}
	for _, t := range techs {
		name := t.Name()
		m.techFrames[name] = reg.Counter("gateway_frames_" + obs.SanitizeToken(name) + "_total")
	}
	return m
}

// Gateway runs the detection/edge/ship pipeline. Captures are fed through
// a streaming detector, so packets that straddle capture boundaries are
// detected once enough samples have arrived; call Flush when the stream
// ends to drain segments still held back at the buffer tail.
type Gateway struct {
	cfg    Config
	stream *detect.Stream
	edge   *cancel.Decoder

	reg    *obs.Registry
	m      metrics
	tracer *obs.Tracer
	idHash uint64 // SiteID(cfg.ID), the minting key for wire trace IDs
	// traceSalt folds the session epoch into trace minting (set by
	// RunResilient before the capture feeder starts). Restarted gateways
	// restart their absolute sample clock, so without the salt a fresh
	// segment could mint the trace ID a previous incarnation used for a
	// different segment at the same Start. WAL-recovered segments never
	// re-mint — their journaled trace ID rides in Segment.Trace — so
	// replay identity still holds across the salt change.
	traceSalt uint64
}

// detectThreshold is the universal-preamble correlation threshold every
// gateway runs at (ROADMAP item 6(a) replaces it with a noise-normalised one).
// The edge path's other fixed number, the 0.15 second-technology score that
// makes a segment a suspected collision, is cancel's collisionScore.
const detectThreshold = 0.08

// New builds a gateway: the universal-preamble detector over cfg.Techs,
// shipping segments with backhaul.DefaultCodec.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Techs) == 0 {
		return nil, errors.New("gateway: no technologies configured")
	}
	if cfg.Frontend == nil {
		cfg.Frontend = frontend.Ideal(1e6)
	}
	if cfg.ID == "" {
		cfg.ID = "galiot-gw"
	}
	fs := cfg.Frontend.SampleRate()
	det, err := detect.NewUniversal(cfg.Techs, fs, detectThreshold)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	maxPacket := 0
	for _, t := range cfg.Techs {
		if n := t.MaxPacketSamples(fs); n > maxPacket {
			maxPacket = n
		}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Gateway{
		cfg:    cfg,
		stream: detect.NewStream(det, maxPacket),
		edge:   cancel.NewDecoder(cfg.Techs, fs), // only ever asked for EdgeDecode
		reg:    reg,
		m:      newMetrics(reg, cfg.Techs),
		tracer: cfg.Tracer,
		idHash: obs.SiteID(cfg.ID),
	}, nil
}

// Registry exposes the gateway's metric registry (Config.Obs, or the
// private one), for the obs HTTP server and shutdown dumps.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// SampleRate returns the gateway's front-end sample rate.
func (g *Gateway) SampleRate() float64 { return g.cfg.Frontend.SampleRate() }

// Stats returns a snapshot of the gateway's counters, reconstructed from
// the metric registry (the registry is the single source of truth).
func (g *Gateway) Stats() Stats {
	return Stats{
		CapturesProcessed: int(g.m.captures.Value()),
		Detections:        int(g.m.detections.Value()),
		SegmentsShipped:   int(g.m.shipped.Value()),
		SegmentsResolved:  int(g.m.resolved.Value()),
		EdgeFrames:        int(g.m.edgeFrames.Value()),
		BadReports:        int(g.m.badReports.Value()),
		BusyRejects:       int(g.m.busyRejects.Value()),
		WireBytes:         int(g.m.wireBytes.Value()),
		RawBytes:          int(g.m.rawBytes.Value()),
	}
}

// Result is the outcome of processing one capture.
type Result struct {
	EdgeFrames []*phy.Frame       // frames fully resolved at the edge
	Shipped    []backhaul.Segment // segments that need the cloud
	// Spans holds the open trace span of each Shipped segment (parallel to
	// Shipped; all nil when tracing is disabled). Run closes them as the
	// segments go out; callers driving Process directly may End or drop
	// them.
	Spans []*obs.Span
}

// Process runs one antenna capture through the pipeline: front-end
// impairments, streaming detection, optional edge decode, and returns what
// must be shipped. Offsets in the returned segments are absolute
// (monotonic across captures). Segments near the end of the buffered
// stream are withheld until the next Process or Flush call, because the
// packets they cover may continue into samples not yet received.
func (g *Gateway) Process(antenna []complex128) Result {
	rx := g.cfg.Frontend.Capture(antenna)
	g.m.captures.Inc()
	g.m.rawBytes.Add(uint64(2 * len(rx))) // cu8 raw stream cost
	t0 := g.tracer.Now()
	segments := g.stream.Push(rx)
	return g.handle(segments, g.tracer.Now()-t0)
}

// Flush drains segments still held in the streaming detector. Call once
// when no more captures will arrive.
func (g *Gateway) Flush() Result {
	t0 := g.tracer.Now()
	segments := g.stream.Flush()
	return g.handle(segments, g.tracer.Now()-t0)
}

// handle routes completed segments through edge decode or shipping. Each
// segment opens a trace span whose trace ID is minted here, at detect
// time, from the gateway's ID hash, the session epoch salt and the
// segment's absolute start sample (obs.MintTraceID) — deterministic
// within a process lifetime, distinct across restarts. A WAL-recovered
// segment keeps the identity it was journaled with. Spans of edge-resolved
// segments end here; spans of shipped segments travel with Result, and
// the segment carries the trace ID plus this span's ID as its wire trace
// context. detectDur is the detection cost of the capture that completed
// these segments (charged to every segment it produced — detection is a
// per-capture pass, not per-segment).
func (g *Gateway) handle(segments []detect.StreamSegment, detectDur int64) Result {
	fs := g.cfg.Frontend.SampleRate()
	var res Result
	for _, seg := range segments {
		sp := g.tracer.Start("gateway-segment", obs.MintTraceID(g.idHash^g.traceSalt, seg.Start))
		sp.Stage("detect", detectDur, float64(len(seg.Samples)))
		if g.cfg.EdgeDecode {
			tEdge := sp.Now()
			frame := g.edge.EdgeDecode(seg.Samples, false)
			if frame != nil {
				sp.Stage("edge_decode", sp.Now()-tEdge, 1)
				frame.Offset += int(seg.Start)
				if c, ok := g.m.techFrames[frame.Tech]; ok {
					c.Inc()
				}
				res.EdgeFrames = append(res.EdgeFrames, frame)
				g.m.edgeFrames.Inc()
				g.m.resolved.Inc()
				sp.End()
				continue
			}
			sp.Stage("edge_decode", sp.Now()-tEdge, 0)
		}
		res.Shipped = append(res.Shipped, backhaul.Segment{
			Start:      seg.Start,
			SampleRate: fs,
			Samples:    seg.Samples,
			Trace:      sp.TraceID(),
			Parent:     sp.SpanID(),
		})
		res.Spans = append(res.Spans, sp)
	}
	g.m.detections.Add(uint64(len(segments)))
	g.m.shipped.Add(uint64(len(res.Shipped)))
	return res
}

// scaleWindow derives a session's shipping window from Config.Window and the
// cloud's hello-ack capacity advice. An auto-sized window (Config.Window
// unset) grows with the decode plane: a sharded cloud serves each session
// from one shard but spreads the fleet over all of them, so a gateway can
// keep DefaultWindow segments in flight per advertised shard. The landing
// shard's own admission bound (ack.Window) then caps the result either way —
// pipelining past what the shard will queue only buys busy rejects. A
// caller-pinned window is never grown, only shrunk by the shard bound.
func scaleWindow(window int, ack backhaul.HelloAck) int {
	if window <= 0 {
		window = DefaultWindow
		if ack.Shards > 1 {
			window = DefaultWindow * ack.Shards
		}
	}
	if ack.Window > 0 && ack.Window < window {
		window = ack.Window
	}
	return window
}

// Run drives one session over a caller-owned backhaul stream: hello (with
// version negotiation), the shipped segments of each capture delivered on
// captures, then bye. It is a single session of the engine RunResilient
// redials around (see session), fed through a rendezvous instead of a
// spool: up to Config.Window sequence-numbered segments stay in flight
// unacknowledged, and a full window backpressures the capture source —
// nothing is spooled, dropped or degraded. The hello carries no epoch, so
// the cloud keeps no replay cache for it; a session failure is returned,
// not retried. Decode reports are delivered to the reports callback (may
// be nil) from the calling goroutine, in segment order.
//
// Run does not close rw on the orderly path. A failing session closes it,
// when it implements io.Closer (net.Conn and net.Pipe ends do), to force
// its reader goroutine out of a blocked read.
func (g *Gateway) Run(rw io.ReadWriter, captures <-chan []complex128, reports func(backhaul.FramesReport)) error {
	r := g.newRun(Resilient{}, reports)
	fresh := make(chan resilience.Item) // unbuffered: the window is the only queue
	r.source = fresh
	quit := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(fresh)
		g.feed(captures, quit, func(it resilience.Item) {
			select {
			case fresh <- it:
			case <-quit:
			}
		})
	}()
	_, err := r.session(rw)
	close(quit)
	<-fed
	return err
}
