package main

// surface.go is the benchmark's whole view of the repository: every call
// into repro/... is made from this file, through a thin adapter, preferring
// the galiot facade. The rest of the benchmark handles the returned values
// as opaque handles. A change to any signature used here changes what the
// benchmark measures and needs a benchmark issue first (README.md lists the
// surface).

import (
	"context"
	"io"

	"repro/galiot"
	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/detect"
	"repro/internal/dsp"
	"repro/internal/farm"
	"repro/internal/phy"
	"repro/internal/resilience"
	"repro/internal/resilience/wal"
	"repro/internal/rng"
)

// sampleRate is the gateway's capture rate (1 Msps, the paper's RTL-SDR).
const sampleRate = galiot.SampleRate

// detectThreshold is the universal-preamble threshold gateway.New applies
// when Config.Detector is nil; the traced replay builds the same detector.
const detectThreshold = 0.08

// edgeCollisionScore is gateway.likelyCollision's threshold: a second
// technology correlating above it sends an edge-decoded segment to the
// cloud anyway. The traced replay repeats the rule and the run cross-checks
// its shipped/resolved counts against the real gateway's.
const edgeCollisionScore = 0.15

type (
	technology   = galiot.Technology
	framesReport = galiot.FramesReport
	frameReport  = galiot.FrameReport
	segment      = backhaul.Segment
	gatewayT     = galiot.Gateway
	cloudT       = galiot.Cloud
	walT         = wal.Log
)

// ---- inputs: technologies, seeded randomness, the channel ----

func prototypeTechs() []technology { return galiot.Technologies() }

// pickTechs returns the named members of the prototype set, in the set's
// own order.
func pickTechs(names ...string) []technology {
	var out []technology
	for _, t := range prototypeTechs() {
		for _, n := range names {
			if t.Name() == n {
				out = append(out, t)
			}
		}
	}
	return out
}

func techName(t technology) string { return t.Name() }

func maxPacketSamples(techs []technology) int {
	m := 0
	for _, t := range techs {
		if n := t.MaxPacketSamples(sampleRate); n > m {
			m = n
		}
	}
	return m
}

func modulate(t technology, payload []byte) ([]complex128, error) {
	return t.Modulate(payload, sampleRate)
}

// rnd is the repository's deterministic generator.
type rnd struct{ r *rng.Rand }

func newRnd(seed uint64) rnd          { return rnd{rng.New(seed)} }
func (g rnd) split(label uint64) rnd  { return rnd{g.r.Split(label)} }
func (g rnd) intn(n int) int          { return g.r.Intn(n) }
func (g rnd) float() float64          { return g.r.Float64() }
func (g rnd) bytes(p []byte)          { g.r.Bytes(p) }
func awgn(n int, g rnd) []complex128  { return channel.AWGN(n, g.r) }
func nextPow2(n int) int              { return dsp.NextPow2(n) }
func fft(x []complex128) []complex128 { return dsp.FFT(x) }

// emission is one burst placed on the channel at an SNR over unit noise.
type emission struct {
	samples []complex128
	offset  int
	snrDB   float64
	phase   float64
}

// mixAir renders n samples of unit-power noise plus the emissions.
func mixAir(n int, ems []emission, noise rnd) []complex128 {
	ce := make([]channel.Emission, len(ems))
	for i, e := range ems {
		ce[i] = channel.Emission{Samples: e.samples, Offset: e.offset, SNRdB: e.snrDB, Phase: e.phase}
	}
	return channel.Mix(n, ce, noise.r, sampleRate)
}

// ---- the gateway ----

func newGateway(id string, techs []technology, edgeDecode bool) (*gatewayT, error) {
	return galiot.NewGateway(galiot.GatewayConfig{ID: id, Techs: techs, EdgeDecode: edgeDecode})
}

func runInline(g *gatewayT, rw io.ReadWriter, captures <-chan []complex128, onReport func(framesReport)) error {
	return g.Run(rw, captures, onReport)
}

// durableLink is what the benchmark sets of galiot.GatewayResilient.
type durableLink struct {
	dial     func() (io.ReadWriteCloser, error)
	spoolCap int
	epoch    uint64
	walDir   string
}

func runDurable(g *gatewayT, l durableLink, captures <-chan []complex128, onReport func(framesReport)) error {
	return g.RunResilient(galiot.GatewayResilient{
		Dial:          l.dial,
		SpoolCapacity: l.spoolCap,
		Epoch:         l.epoch,
		WALDir:        l.walDir,
		WALSync:       galiot.WALSyncBatched,
	}, captures, onReport)
}

// gwCounters is the subset of the gateway's counters the oracle reads.
type gwCounters struct {
	Detections, Shipped, Resolved, EdgeFrames int
	BadReports, BusyRejects, WireBytes        int
	SpoolDropped                              int
}

func (a gwCounters) sub(b gwCounters) gwCounters {
	return gwCounters{
		a.Detections - b.Detections, a.Shipped - b.Shipped, a.Resolved - b.Resolved, a.EdgeFrames - b.EdgeFrames,
		a.BadReports - b.BadReports, a.BusyRejects - b.BusyRejects, a.WireBytes - b.WireBytes,
		a.SpoolDropped - b.SpoolDropped,
	}
}

func (a gwCounters) add(b gwCounters) gwCounters {
	return gwCounters{
		a.Detections + b.Detections, a.Shipped + b.Shipped, a.Resolved + b.Resolved, a.EdgeFrames + b.EdgeFrames,
		a.BadReports + b.BadReports, a.BusyRejects + b.BusyRejects, a.WireBytes + b.WireBytes,
		a.SpoolDropped + b.SpoolDropped,
	}
}

func gatewayCounters(g *gatewayT) gwCounters {
	s := g.Stats()
	return gwCounters{
		Detections: s.Detections, Shipped: s.SegmentsShipped, Resolved: s.SegmentsResolved, EdgeFrames: s.EdgeFrames,
		BadReports: s.BadReports, BusyRejects: s.BusyRejects, WireBytes: s.WireBytes,
		SpoolDropped: int(g.Registry().Counter("gateway_spool_dropped_total").Value()),
	}
}

// ---- the cloud and the sharded plane ----

func newCloud(techs []technology) *cloudT { return galiot.NewCloud(techs...) }

func serveConn(c *cloudT, rw io.ReadWriter) error { return c.ServeConn(rw) }

func cloudDecodeSegment(c *cloudT, seg segment) framesReport { return c.DecodeSegment(seg) }

// decodeStats is what one or more collision decodes did.
type decodeStats struct{ SICRounds, KillFreq, KillCSS, Failed int }

func (a decodeStats) plus(b decodeStats) decodeStats {
	return decodeStats{a.SICRounds + b.SICRounds, a.KillFreq + b.KillFreq, a.KillCSS + b.KillCSS, a.Failed + b.Failed}
}

func fromCancelStats(s galiot.DecodeStats) decodeStats {
	return decodeStats{s.SICRounds, s.KillFreq, s.KillCSS, s.FailedDecode}
}

// fleetPlane is a sharded decode plane behind a loopback TCP listener.
type fleetPlane struct {
	front *galiot.Fleet
	srv   *galiot.CloudServer
}

func newFleetPlane(techs []technology, shards, workers int) (*fleetPlane, error) {
	front, err := galiot.NewFleet(galiot.FleetConfig{Techs: techs, Shards: shards, Workers: workers})
	if err != nil {
		return nil, err
	}
	srv := front.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		front.Close()
		return nil, err
	}
	return &fleetPlane{front: front, srv: srv}, nil
}

func (p *fleetPlane) addr() string { return p.srv.Addr().String() }

func (p *fleetPlane) shardOf(gatewayID string, epoch uint64) int {
	return p.front.Ring().Lookup(gatewayID, epoch)
}

// shardJobs returns the jobs each shard's farm has admitted so far.
func (p *fleetPlane) shardJobs() []uint64 {
	var out []uint64
	for _, s := range p.front.Stats() {
		out = append(out, s.Farm.Admitted)
	}
	return out
}

// close stops the listener, waits for the sessions, then drains the farms.
func (p *fleetPlane) close() error {
	err := p.srv.Close()
	p.front.Close()
	return err
}

// ---- single layers, for the traced replay ----

func newFrontend() *galiot.Receiver { return galiot.IdealFrontend() }

func frontendCapture(rx *galiot.Receiver, antenna []complex128) []complex128 {
	return rx.Capture(antenna)
}

type streamSegment = detect.StreamSegment

// newDetectStream builds the stream gateway.New builds: the universal
// detector over techs wrapped for continuous operation.
func newDetectStream(techs []technology) (*detect.Stream, error) {
	det, err := galiot.NewUniversalDetector(techs, detectThreshold)
	if err != nil {
		return nil, err
	}
	return detect.NewStream(det, maxPacketSamples(techs)), nil
}

func streamPush(s *detect.Stream, rx []complex128) []streamSegment { return s.Push(rx) }

func streamFlush(s *detect.Stream) []streamSegment { return s.Flush() }

// quietFloor reports whether the universal detector stays silent on a noise
// capture, also across the seam where the capture follows itself (the
// noise-floor screen in air.go).
func quietFloor(techs []technology, floor []complex128) (bool, error) {
	det, err := galiot.NewUniversalDetector(techs, detectThreshold)
	if err != nil {
		return false, err
	}
	rx := append(floor[:len(floor):len(floor)], floor[:len(det.U.Template)]...)
	return len(det.Detect(rx)) == 0, nil
}

// newEdgeDecoder builds the decoder gateway.New builds for edge decode:
// plain SIC, one round.
func newEdgeDecoder(techs []technology) *galiot.CollisionDecoder {
	d := galiot.NewSICBaseline(techs)
	d.MaxRounds = 1
	return d
}

// edgeAttempt is the gateway's edge policy on one segment: decode assuming
// no collision, keep the result only when exactly one CRC-clean frame came
// out and no other technology still correlates.
func edgeAttempt(d *galiot.CollisionDecoder, samples []complex128) (resolved bool) {
	frames, _ := d.Decode(samples)
	if len(frames) != 1 || !frames[0].CRCOK {
		return false
	}
	for _, c := range d.Classify(samples) {
		if c.Tech.Name() != frames[0].Tech && c.Score > edgeCollisionScore {
			return false
		}
	}
	return true
}

func newCollisionDecoder(techs []technology) *galiot.CollisionDecoder {
	return galiot.NewCollisionDecoder(techs)
}

func collisionDecode(d *galiot.CollisionDecoder, samples []complex128) (frames int, st decodeStats) {
	fr, cs := d.Decode(samples)
	return len(fr), fromCancelStats(cs)
}

// killFrequency applies KILL-FREQUENCY for an FSK technology's tones.
func killFrequency(samples []complex128, t technology) bool {
	tt, ok := t.(phy.ToneTechnology)
	if !ok {
		return false
	}
	cancel.KillFrequency(samples, tt.Tones(), cancel.FSKKillWidth(t.BitRate()), sampleRate)
	return true
}

// killCSS applies KILL-CSS for a chirp technology.
func killCSS(samples []complex128, t technology) bool {
	ct, ok := t.(phy.ChirpTechnology)
	if !ok {
		return false
	}
	cancel.NewCSSKiller(ct).Apply(samples, sampleRate)
	return true
}

func encodeSegment(seg segment) ([]byte, error) { return backhaul.DefaultCodec.Encode(seg) }

func decodeSegment(payload []byte) (segment, error) { return backhaul.DecodeSegment(payload) }

// wire frames messages over a byte stream the way a session does.
type wire struct{ c *backhaul.Conn }

func newWire(rw io.ReadWriter) wire { return wire{backhaul.NewConn(rw)} }

func (w wire) ping(payload []byte) error { return w.c.WriteMessage(backhaul.MsgBusy, payload) }

func (w wire) recv() ([]byte, error) {
	_, p, err := w.c.ReadMessage()
	return p, err
}

func openWAL(dir string) (*walT, error) {
	l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatched})
	return l, err
}

func walAppend(l *walT, seg segment) (uint64, error) { return l.Append(seg) }
func walAck(l *walT, id uint64)                      { l.Ack(id) }
func walLiveBytes(l *walT) int64                     { return l.LiveBytes() }
func walClose(l *walT) error                         { return l.Close() }

func newSpool(capacity int) *resilience.Spool { return resilience.NewSpool(capacity) }

func spoolPut(s *resilience.Spool, seg segment) (dropped bool) {
	_, dropped = s.Put(resilience.Item{Seg: seg})
	return dropped
}

func spoolTake(s *resilience.Spool) segment { return (<-s.C()).Seg }

// newNoopFarm is a decode farm whose decode does nothing, so Submit→done
// times the queue machinery alone.
func newNoopFarm(workers int) *farm.Farm {
	return farm.New(farm.Config{Workers: workers, Decode: func(_ context.Context, seg segment) (framesReport, galiot.DecodeStats, error) {
		return framesReport{SegmentStart: seg.Start}, galiot.DecodeStats{}, nil
	}})
}

func farmSubmit(f *farm.Farm, seg segment, done func()) error {
	return f.Submit(context.Background(), seg, func(farm.Result) { done() })
}

func farmClose(f *farm.Farm) { f.Close() }
