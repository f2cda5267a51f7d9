// Package cloud implements GalioT's cloud decoder service: it receives
// detected I/Q segments from gateways over the backhaul protocol, runs the
// Algorithm-1 collision decoder (SIC wrapped around the kill filters) on
// each, and returns the recovered frames. The same decoding engine is
// exposed as a library (Service.DecodeSegment) and as a TCP server.
//
// Decoding scales across gateways through the decode farm (internal/farm):
// when a farm is attached with StartFarm, every session feeds the shared
// bounded queue and a fixed worker pool drains it, so one slow collision
// decode no longer stalls its whole gateway session. Sessions pipeline
// sequence-numbered segments and receive explicit MsgBusy rejects under
// overload.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/phy"
)

// Service decodes shipped segments.
type Service struct {
	techs []phy.Technology
	// dec is the decoder at the rate last asked for (see decoder).
	dec atomic.Pointer[cancel.Decoder]
	// Logf receives per-segment diagnostics; nil silences them.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	farm *farm.Farm

	dedup dedupCache

	reg    *obs.Registry
	tracer *obs.Tracer
	m      cloudMetrics
}

// cloudMetrics is the service's registry-backed counter set; decodeSegment
// bumps these instead of a mutex-guarded totals struct.
type cloudMetrics struct {
	segments   *obs.Counter            // cloud_segments_decoded_total
	frames     *obs.Counter            // cloud_frames_decoded_total
	sicRounds  *obs.Counter            // cloud_sic_rounds_total
	killFreq   *obs.Counter            // cloud_kill_freq_total
	killCSS    *obs.Counter            // cloud_kill_css_total
	killCodes  *obs.Counter            // cloud_kill_codes_total
	failed     *obs.Counter            // cloud_failed_decode_total
	duplicates *obs.Counter            // cloud_duplicates_total
	deduped    *obs.Counter            // cloud_segments_deduped_total
	dedupSuper *obs.Counter            // cloud_dedup_superseded_total (epoch-superseded)
	techFrames map[string]*obs.Counter // per-technology decoded frames
}

func newCloudMetrics(reg *obs.Registry, techs []phy.Technology) cloudMetrics {
	m := cloudMetrics{
		segments:   reg.Counter("cloud_segments_decoded_total"),
		frames:     reg.Counter("cloud_frames_decoded_total"),
		sicRounds:  reg.Counter("cloud_sic_rounds_total"),
		killFreq:   reg.Counter("cloud_kill_freq_total"),
		killCSS:    reg.Counter("cloud_kill_css_total"),
		killCodes:  reg.Counter("cloud_kill_codes_total"),
		failed:     reg.Counter("cloud_failed_decode_total"),
		duplicates: reg.Counter("cloud_duplicates_total"),
		deduped:    reg.Counter("cloud_segments_deduped_total"),
		dedupSuper: reg.Counter("cloud_dedup_superseded_total"),
		techFrames: make(map[string]*obs.Counter, len(techs)),
	}
	for _, t := range techs {
		name := t.Name()
		m.techFrames[name] = reg.Counter("cloud_frames_" + obs.SanitizeToken(name) + "_total")
	}
	return m
}

// NewService returns a decoder service over the given technologies.
func NewService(techs []phy.Technology) *Service {
	s := &Service{techs: techs}
	s.reg = obs.NewRegistry()
	s.m = newCloudMetrics(s.reg, techs)
	return s
}

// UseObs rewires the service onto a shared registry (and optional tracer):
// the cloud_* counters move to reg, and per-segment spans are opened on tr.
// Call before serving traffic — metric values recorded on the private
// registry do not migrate.
func (s *Service) UseObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		s.reg = reg
		s.m = newCloudMetrics(reg, s.techs)
	}
	s.tracer = tr
}

// Registry exposes the service's metric registry (the private one, or
// whatever UseObs installed), for the obs HTTP server and shutdown dumps.
func (s *Service) Registry() *obs.Registry { return s.reg }

// StartFarm attaches a decode farm: ServeConn sessions stop decoding
// inline and submit to the shared worker pool instead. cfg.Decode is
// supplied by the service unless the caller overrides it (tests do, to
// inject slow or failing decoders). Returns the farm; Close (or
// farm.Close) drains it.
func (s *Service) StartFarm(cfg farm.Config) *farm.Farm {
	if cfg.Decode == nil {
		cfg.Decode = s.decodeSegment
	}
	if cfg.Obs == nil {
		cfg.Obs = s.reg // farm_* metrics land next to the cloud_* series
	}
	f := farm.New(cfg)
	s.mu.Lock()
	s.farm = f
	s.mu.Unlock()
	return f
}

// DecodeFunc returns the service's own farm decode function (collision
// decoder plus registry accounting), so callers assembling a farm.Config
// themselves — the sharded front tier, load harnesses — can wrap the real
// decoder instead of replacing it.
func (s *Service) DecodeFunc() farm.DecodeFunc { return s.decodeSegment }

// Farm returns the attached decode farm, or nil.
func (s *Service) Farm() *farm.Farm {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.farm
}

// Close drains the attached farm, if any: intake stops, every admitted
// segment finishes, then Close returns. Call after Server.Close.
func (s *Service) Close() {
	if f := s.Farm(); f != nil {
		f.Close()
	}
}

// DecodeSegment runs the collision decoder on one shipped segment and
// returns a report with absolute offsets.
func (s *Service) DecodeSegment(seg backhaul.Segment) backhaul.FramesReport {
	report, _, _ := s.decodeSegment(context.Background(), seg)
	return report
}

// decodeSegment is the farm DecodeFunc: collision decoder, registry
// accounting, per-segment diagnostics. A trace span riding on ctx (placed
// there by handleSegment) collects the decode and SIC stages.
func (s *Service) decodeSegment(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
	dec, err := s.decoder(seg.SampleRate)
	if err != nil {
		return backhaul.FramesReport{}, cancel.Stats{}, err
	}
	sp := obs.SpanFromContext(ctx)
	tDecode := sp.Now()
	frames, stats := dec.DecodeTraced(seg.Samples, sp)
	sp.Stage("decode", sp.Now()-tDecode, float64(len(frames)))
	report := backhaul.FramesReport{SegmentStart: seg.Start}
	for _, f := range frames {
		report.Frames = append(report.Frames, backhaul.FrameReport{
			Tech:    f.Tech,
			Payload: f.Payload,
			CRCOK:   f.CRCOK,
			Offset:  seg.Start + int64(f.Offset),
			SNRdB:   f.SNRdB,
		})
		if c, ok := s.m.techFrames[f.Tech]; ok {
			c.Inc()
		}
	}
	s.m.segments.Inc()
	s.m.frames.Add(uint64(len(frames)))
	s.m.sicRounds.Add(uint64(stats.SICRounds))
	s.m.killFreq.Add(uint64(stats.KillFreq))
	s.m.killCSS.Add(uint64(stats.KillCSS))
	s.m.killCodes.Add(uint64(stats.KillCodes))
	s.m.failed.Add(uint64(stats.FailedDecode))
	s.m.duplicates.Add(uint64(stats.Duplicates))
	if s.Logf != nil {
		s.Logf("segment @%d: %d samples -> %d frames (stats %+v)",
			seg.Start, len(seg.Samples), len(frames), stats)
	}
	return report, stats, nil
}

// session carries the per-connection state of one ServeConn call.
type session struct {
	svc   *Service
	conn  *backhaul.Conn
	site  uint64 // obs.SiteID of the hello's gateway ID, for trace minting
	ctx   context.Context
	dedup *sessionDedup // nil when the hello carried no epoch

	seqr farm.Sequencer
	wmu  sync.Mutex // guards writeErr (writes themselves serialize in seqr)
	werr error
}

// setWriteErr records the first reply-write failure; the read loop
// surfaces it.
func (ss *session) setWriteErr(err error) {
	if err == nil {
		return
	}
	ss.wmu.Lock()
	if ss.werr == nil {
		ss.werr = err
	}
	ss.wmu.Unlock()
}

func (ss *session) writeErr() error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	return ss.werr
}

// ReadHello consumes and parses the opening hello of a gateway session.
// A front tier uses it to learn the session's routing key (gateway ID,
// epoch) before deciding which decode shard serves the connection; the
// shard then continues with ServeHello.
func ReadHello(conn *backhaul.Conn) (backhaul.Hello, error) {
	typ, payload, err := conn.ReadMessage()
	if err != nil {
		return backhaul.Hello{}, err
	}
	if typ != backhaul.MsgHello {
		return backhaul.Hello{}, fmt.Errorf("cloud: expected hello, got message type %d", typ)
	}
	hello, err := backhaul.ParseHello(payload)
	if err != nil {
		return backhaul.Hello{}, fmt.Errorf("cloud: bad hello: %w", err)
	}
	return hello, nil
}

// maxSampleRate caps the rate a hello may claim. Decoder templates are
// allocated in proportion to the rate, so the claim is bounded before
// anything is built at it: 64x the paper's 1 Msps front-end is beyond any
// SDR the gateway models.
const maxSampleRate = 64e6

// decoder returns the service's decoder at sample rate fs. The service
// keeps one decoder, for the rate it last built at, and builds a new one
// when fs differs from it in any bit; one Decoder serves concurrent
// decodes. Building it vets a peer-claimed rate, so a rate is refused
// exactly when no segment at it could be decoded. A PHY panics on a rate
// it cannot run at — a configuration bug everywhere else — but here the
// rate is outside input, so the panic is reported as an error instead of
// reaching a farm worker.
func (s *Service) decoder(fs float64) (dec *cancel.Decoder, err error) {
	if !(fs > 0 && fs <= maxSampleRate) { // written so that NaN fails too
		return nil, fmt.Errorf("cloud: sample rate %v out of range", fs)
	}
	if dec := s.dec.Load(); dec != nil && math.Float64bits(dec.SampleRate()) == math.Float64bits(fs) {
		return dec, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cloud: sample rate %v unsupported: %v", fs, r)
		}
	}()
	dec = cancel.NewDecoder(s.techs, fs)
	s.dec.Store(dec)
	return dec, nil
}

// ServeConn handles one gateway session over a byte stream: hello (with
// version negotiation), segments, bye. Gateways pipeline sequence-numbered
// segments and get per-segment frames reports or busy rejects, always in
// segment order. It returns when the gateway says bye or the stream
// errors; on bye, every admitted segment has been answered first.
func (s *Service) ServeConn(rw io.ReadWriter) error {
	conn := backhaul.NewConn(rw)
	conn.SetMetrics(backhaul.NewConnMetrics(s.reg))
	hello, err := ReadHello(conn)
	if err != nil {
		return err
	}
	return s.ServeHello(conn, hello, backhaul.HelloAck{})
}

// ServeHello serves a session whose hello has already been consumed from
// conn (see ReadHello). hint seeds the hello ack: a sharded front tier
// passes its aggregate-capacity fields (Shards, Capacity) and may pin
// Window/Workers; zero hint fields are filled from this service's farm,
// and Version always comes from negotiation. The caller keeps ownership
// of conn's metrics wiring.
func (s *Service) ServeHello(conn *backhaul.Conn, hello backhaul.Hello, hint backhaul.HelloAck) error {
	version, err := backhaul.Negotiate(hello.Version)
	if err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	if _, err := s.decoder(hello.SampleRate); err != nil {
		return err
	}
	f := s.Farm()
	ack := hint
	ack.Version = version
	if f != nil && (ack.Window == 0 || ack.Workers == 0) {
		snap := f.Snapshot()
		if ack.Window == 0 {
			ack.Window = snap.QueueDepth
		}
		if ack.Workers == 0 {
			ack.Workers = snap.Workers
		}
	}
	if err := conn.SendHelloAck(ack); err != nil {
		return err
	}
	if s.Logf != nil {
		s.Logf("session from %s (v%d, fs=%.0f, techs=%v)", hello.GatewayID, version, hello.SampleRate, hello.Techs)
	}
	// The session context cancels when ServeConn returns: queued jobs of a
	// dead session are skipped by the farm instead of decoded into the void.
	ctx, cancelSession := context.WithCancel(context.Background())
	defer cancelSession()
	ss := &session{svc: s, conn: conn, site: obs.SiteID(hello.GatewayID), ctx: ctx}
	if hello.Epoch != 0 {
		// An epoch-bearing gateway replays its unacked window after every
		// reconnect; remembering decoded reports per (gateway, epoch,
		// start) answers those replays without re-decoding. A fresh epoch
		// supersedes the gateway's older ones: it announces a restart, so
		// entries cached under dead epochs are unreachable and dropped.
		s.m.dedupSuper.Add(s.dedup.supersede(hello.GatewayID, hello.Epoch))
		ss.dedup = &sessionDedup{c: &s.dedup, gateway: hello.GatewayID, epoch: hello.Epoch}
	}
	for {
		typ, payload, err := conn.ReadMessage()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return ss.writeErr()
			}
			return err
		}
		switch typ {
		case backhaul.MsgSegmentSeq:
			seq, seg, err := backhaul.DecodeSegmentSeq(payload)
			if err == nil && math.Float64bits(seg.SampleRate) != math.Float64bits(hello.SampleRate) {
				// The decoder is built at this rate, and only the hello's
				// value was vetted, so it must match to the bit.
				err = fmt.Errorf("sample rate %v differs from the hello's %v", seg.SampleRate, hello.SampleRate)
			}
			if err != nil {
				return fmt.Errorf("cloud: bad segment: %w", err)
			}
			if err := ss.handleSegment(f, seq, seg); err != nil {
				return err
			}
		case backhaul.MsgBye:
			// Drain before acknowledging: every admitted segment gets its
			// reply, then the bye confirms an orderly end of session.
			ss.seqr.Wait()
			if err := ss.writeErr(); err != nil {
				return err
			}
			return conn.SendBye()
		default:
			return fmt.Errorf("cloud: unexpected message type %d", typ)
		}
		if err := ss.writeErr(); err != nil {
			return err
		}
	}
}

// handleSegment routes one segment: answered from the replay cache,
// decoded inline when no farm is attached, otherwise submitted to the farm,
// where overload is answered with MsgBusy. Every answer reserves a
// sequencer slot and leaves through reply; without a farm the slot is
// delivered before handleSegment returns.
func (ss *session) handleSegment(f *farm.Farm, seq uint64, seg backhaul.Segment) error {
	// The cloud-side span joins the trace the gateway minted: a segment
	// carries its trace ID and the shipping span's ID in the wire trace
	// context, so this span stitches under the gateway's as a true child.
	// A segment without context (untraced gateway) is minted here with the
	// gateway's own function over the same inputs, which is the ID an
	// unsalted gateway (Gateway.Run) mints for it.
	traceID, parent := seg.Trace, seg.Parent
	if traceID == 0 {
		traceID = obs.MintTraceID(ss.site, seg.Start)
	}
	sp := ss.svc.tracer.StartChild("cloud-segment", traceID, parent)
	ctx := obs.ContextWithSpan(ss.ctx, sp)
	slot := ss.seqr.Reserve()
	answer := func(res farm.Result) {
		ss.seqr.Deliver(slot, func() {
			ss.reply(seq, res)
			sp.End()
		})
	}
	if ss.dedup != nil {
		if rep, ok := ss.dedup.get(seg.Start); ok {
			// Replay of an already-decoded segment (same gateway, same
			// epoch): answer from cache so it is decoded exactly once.
			ss.svc.m.deduped.Inc()
			sp.Stage("dedup_hit", 0, float64(len(rep.Frames)))
			answer(farm.Result{Report: rep})
			return nil
		}
	}
	deliver := func(res farm.Result) {
		if res.Err == nil && ss.dedup != nil {
			ss.dedup.put(seg.Start, res.Report)
		}
		answer(res)
	}
	if f == nil {
		report, _, err := ss.svc.decodeSegment(ctx, seg)
		deliver(farm.Result{Report: report, Err: err})
		return nil
	}
	switch err := f.TrySubmit(ctx, seg, deliver); err {
	case nil:
		return nil
	case farm.ErrBusy:
		// Admission control said no: answer the slot with an explicit
		// reject so the gateway can retire the segment from its window.
		sp.Stage("busy_reject", 0, 0)
		deliver(farm.Result{Err: err})
		return nil
	default:
		// Farm closed mid-session: release the slot and end the session.
		ss.seqr.Deliver(slot, func() {})
		sp.End()
		return fmt.Errorf("cloud: decode farm unavailable: %w", err)
	}
}

// reply writes one segment's answer. Runs as a sequencer callback, so
// replies leave in segment order and never interleave, and a write stalled
// on a peer that is not reading holds up neither the session's reader nor
// the farm workers delivering later slots.
func (ss *session) reply(seq uint64, res farm.Result) {
	if res.Err != nil {
		ss.setWriteErr(ss.conn.SendBusy(seq))
		return
	}
	res.Report.Seq = seq
	ss.setWriteErr(ss.conn.SendFrames(res.Report))
}
