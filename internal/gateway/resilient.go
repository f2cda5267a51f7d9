package gateway

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/backhaul"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/resilience/wal"
)

// DefaultSpoolCapacity bounds the in-memory segment spool when
// Resilient.SpoolCapacity is zero.
const DefaultSpoolCapacity = 64

// DefaultWALBacklogMax is the replay-backlog readiness threshold: a gateway
// sitting on more unacked WAL records than this would dump an oversized
// replay burst on restart, so /readyz reports it out of headroom.
const DefaultWALBacklogMax = 4096

// Resilient configures RunResilient, the reconnecting flavor of Run.
type Resilient struct {
	// Dial opens one backhaul connection attempt. RunResilient owns the
	// returned stream and closes it when the session ends.
	Dial func() (io.ReadWriteCloser, error)
	// Retry paces reconnect attempts (see resilience.RetryPolicy; the zero
	// value applies the package defaults). The budget is consecutive: a
	// successfully established session restores it in full.
	Retry resilience.RetryPolicy
	// SpoolCapacity bounds the segment spool between the detection pipeline
	// and the backhaul sender (default DefaultSpoolCapacity). When the
	// spool saturates during an outage the oldest segment is dropped to the
	// degraded edge-only decode path.
	SpoolCapacity int
	// ReadTimeout bounds silence on the wire: if the cloud sends nothing
	// for this long the session is declared dead and redialed. Zero
	// disables the watchdog.
	ReadTimeout time.Duration
	// WriteTimeout bounds each backhaul write. Zero disables it.
	WriteTimeout time.Duration
	// Epoch identifies this gateway process lifetime in the hello so the
	// cloud can deduplicate segments replayed across connection flaps.
	// Every session of one RunResilient call repeats the same epoch; a
	// restarted gateway should pass a fresh value. Zero is replaced by 1.
	Epoch uint64
	// WALDir enables crash-durable shipping: every admitted segment is
	// journaled to a write-ahead log in this directory before it is
	// spooled, acks are journaled as the shipped window advances, and a
	// restarted gateway replays the unacknowledged window (oldest first,
	// under its fresh Epoch) ahead of new traffic. Empty disables the WAL
	// — behavior is then byte-identical to the purely in-memory spool.
	WALDir string
	// WALSync selects the WAL fsync policy (default wal.SyncBatched).
	WALSync wal.SyncPolicy
}

// resMetrics is the registry-backed counter set of the resilience layer.
type resMetrics struct {
	reconnects     *obs.Counter            // gateway_reconnects_total
	dialAttempts   *obs.Counter            // gateway_dial_attempts_total
	dialFailures   *obs.Counter            // gateway_dial_failures_total
	spoolDepth     *obs.Gauge              // gateway_spool_depth_count
	spoolDropped   *obs.Counter            // gateway_spool_dropped_total
	techDropped    map[string]*obs.Counter // gateway_spool_dropped_<tech>_total, read-only after wiring
	unknownDropped *obs.Counter            // gateway_spool_dropped_unknown_total
	degradedFrames *obs.Counter            // gateway_degraded_frames_total
	replayed       *obs.Counter            // gateway_replayed_segments_total
	connected      *obs.Gauge              // gateway_connected_state (1 = session established)
	backoffMillis  *obs.Gauge              // gateway_backoff_current_millis (0 when not backing off)
}

func (g *Gateway) newResMetrics() *resMetrics {
	rm := &resMetrics{
		reconnects:     g.reg.Counter("gateway_reconnects_total"),
		dialAttempts:   g.reg.Counter("gateway_dial_attempts_total"),
		dialFailures:   g.reg.Counter("gateway_dial_failures_total"),
		spoolDepth:     g.reg.Gauge("gateway_spool_depth_count"),
		spoolDropped:   g.reg.Counter("gateway_spool_dropped_total"),
		techDropped:    make(map[string]*obs.Counter, len(g.cfg.Techs)),
		unknownDropped: g.reg.Counter("gateway_spool_dropped_unknown_total"),
		degradedFrames: g.reg.Counter("gateway_degraded_frames_total"),
		replayed:       g.reg.Counter("gateway_replayed_segments_total"),
		connected:      g.reg.Gauge("gateway_connected_state"),
		backoffMillis:  g.reg.Gauge("gateway_backoff_current_millis"),
	}
	for _, t := range g.cfg.Techs {
		name := t.Name()
		rm.techDropped[name] = g.reg.Counter("gateway_spool_dropped_" + obs.SanitizeToken(name) + "_total")
	}
	return rm
}

// carried is a spooled segment moving between sessions. sent marks items
// that were shipped at least once and never acknowledged — shipping them
// again counts as a replay.
type carried struct {
	it   resilience.Item
	sent bool
}

// flight is one unacknowledged in-window segment of the current session.
type flight struct {
	it  resilience.Item
	seq uint64
}

// ackEvent is one cloud reply routed from the session reader to the sender.
type ackEvent struct {
	seq    uint64
	busy   bool
	report backhaul.FramesReport
}

// resilientRun is the state of one Run or RunResilient call: what every
// session of the call shares and what carries over between sessions.
type resilientRun struct {
	g  *Gateway
	rc Resilient
	rm *resMetrics
	// source delivers fresh segments to the session and is closed after the
	// last one: the spool's channel under RunResilient, an unbuffered
	// rendezvous with the capture feeder under Run. Which one is decided by
	// the entry point, never by a setting.
	source  <-chan resilience.Item
	spool   *resilience.Spool // RunResilient only
	wal     *wal.Log          // nil when WALDir is unset
	reports func(backhaul.FramesReport)
	hello   backhaul.Hello

	pending  []carried // backlog awaiting (re)shipment, oldest first
	drained  bool      // source closed and fully consumed
	sessions int       // established sessions so far
	backoff  *resilience.Backoff
	// degraded marks an active degraded-mode episode (spool overflow is
	// dropping segments to edge-only decode). The feeder enters it and the
	// session goroutine exits it, hence the CAS discipline: each transition
	// is journaled exactly once no matter how the two goroutines interleave.
	degraded atomic.Bool
}

// degradeItem is the drop path: a segment the backhaul will never carry gets
// the edge policy in its last-resort form (cancel.Decoder.EdgeDecode: the
// strongest candidate is demodulated even when a collision is suspected), a
// CRC-clean frame is reported locally, and the drop is charged to the
// per-technology counters (by the technology of the recovered frame, or the
// unknown bucket when nothing decodes).
// The first drop of an episode journals its enter edge. The edge-only decode
// is the item's final disposition, so its WAL record (if any) is acked.
// Only the capture feeder and the post-exhaustion drain call this, never
// concurrently, so reusing the gateway's edge decoder is safe.
func (r *resilientRun) degradeItem(it resilience.Item) {
	if r.degraded.CompareAndSwap(false, true) {
		r.g.cfg.Journal.Record("gateway_degraded_enter", int64(len(r.source)))
	}
	tEdge := it.Span.Now()
	rep := backhaul.FramesReport{SegmentStart: it.Seg.Start}
	tech := ""
	if f := r.g.edge.EdgeDecode(it.Seg.Samples, true); f != nil {
		tech = f.Tech
		rep.Frames = append(rep.Frames, backhaul.FrameReport{
			Tech:    f.Tech,
			Payload: f.Payload,
			CRCOK:   true,
			Offset:  it.Seg.Start + int64(f.Offset),
			SNRdB:   f.SNRdB,
		})
	}
	r.rm.spoolDropped.Inc()
	if c, ok := r.rm.techDropped[tech]; ok {
		c.Inc()
	} else {
		r.rm.unknownDropped.Inc()
	}
	r.rm.degradedFrames.Add(uint64(len(rep.Frames)))
	it.Span.Stage("spool_drop", it.Span.Now()-tEdge, float64(len(rep.Frames)))
	it.Span.End()
	if len(rep.Frames) > 0 && r.reports != nil {
		r.reports(rep)
	}
	r.ack(it)
}

// ack retires the item's WAL record once the item is finally handled.
func (r *resilientRun) ack(it resilience.Item) {
	if r.wal != nil && it.WAL != 0 {
		r.wal.Ack(it.WAL)
	}
}

// closeWAL closes the log on the orderly-shutdown paths, where every
// admitted segment has been finally handled (acked or degraded-drained) and
// the close therefore clears the directory.
func (r *resilientRun) closeWAL() {
	if r.wal != nil {
		// A close failure only forfeits the final compaction, which the
		// next open redoes.
		_ = r.wal.Close()
	}
}

// newRun builds the state Run and RunResilient share: the hello every
// session of the call repeats (rc.Epoch zero leaves cloud dedup off), the
// resilience counters and the redial pacing.
func (g *Gateway) newRun(rc Resilient, reports func(backhaul.FramesReport)) *resilientRun {
	techs := make([]string, 0, len(g.cfg.Techs))
	for _, t := range g.cfg.Techs {
		techs = append(techs, t.Name())
	}
	return &resilientRun{
		g:       g,
		rc:      rc,
		rm:      g.newResMetrics(),
		reports: reports,
		backoff: resilience.NewBackoff(rc.Retry),
		hello: backhaul.Hello{
			Version:    backhaul.Version,
			GatewayID:  g.cfg.ID,
			SampleRate: g.cfg.Frontend.SampleRate(),
			Techs:      techs,
			Epoch:      rc.Epoch,
		},
	}
}

// feed is the capture side of a run: it drives the detection pipeline over
// captures until the channel closes (then flushes the detector) or quit
// closes, handing every segment that needs the cloud to put along with the
// trace span that has followed it since detection.
func (g *Gateway) feed(captures <-chan []complex128, quit <-chan struct{}, put func(resilience.Item)) {
	ship := func(res Result) {
		for i, seg := range res.Shipped {
			put(resilience.Item{Seg: seg, Span: res.Spans[i]})
		}
	}
	for {
		select {
		case capture, ok := <-captures:
			if !ok {
				ship(g.Flush())
				return
			}
			ship(g.Process(capture))
		case <-quit:
			return
		}
	}
}

// admit journals a fresh segment to the WAL (when one is open) and spools
// it; spool overflow routes the evicted (oldest) segment through degrade.
// An append failure is absorbed: the segment still ships from memory, it
// just loses its crash insurance, and wal_append_errors_total says so. An
// evicted item still carries its WAL id, so degradeItem retires its record.
func (r *resilientRun) admit(it resilience.Item) {
	if r.wal != nil {
		if id, err := r.wal.Append(it.Seg); err == nil {
			it.WAL = id
		}
	}
	if ev, dropped := r.spool.Put(it); dropped {
		r.degradeItem(ev)
	}
	r.rm.spoolDepth.Set(int64(r.spool.Len()))
}

// RunResilient is Run behind a reconnecting backhaul client. Captures are
// consumed continuously by a feeder goroutine into a bounded spool, so the
// detection pipeline never stalls on a dead link; the sender drains the
// spool over a sequence of sessions, re-helloing (same epoch) after every
// connection failure and replaying the unacknowledged window so no
// admitted segment is lost to a flap. When the spool saturates the oldest
// segment falls back to a local edge-only decode (degraded mode) and is
// counted dropped. The error is non-nil only when Retry's consecutive
// attempt budget is exhausted; everything still spooled at that point is
// drained through the degraded path before returning.
//
// Unlike Run, the reports callback may be invoked concurrently (cloud
// reports from the session loop, degraded-mode reports from the feeder) —
// callers must synchronize.
func (g *Gateway) RunResilient(rc Resilient, captures <-chan []complex128, reports func(backhaul.FramesReport)) error {
	if rc.Dial == nil {
		return errors.New("gateway: RunResilient requires a Dial function")
	}
	if rc.Epoch == 0 {
		rc.Epoch = 1
	}
	// Salt this lifetime's trace IDs with the epoch before the capture
	// feeder can mint any (the feeder goroutine starts below, so this
	// write happens-before every handle call).
	g.traceSalt = obs.MintTraceID(rc.Epoch, 0)
	if rc.SpoolCapacity <= 0 {
		rc.SpoolCapacity = DefaultSpoolCapacity
	}
	r := g.newRun(rc, reports)
	rm := r.rm
	r.spool = resilience.NewSpool(rc.SpoolCapacity)
	r.source = r.spool.C()
	if rc.WALDir != "" {
		wlog, recovered, err := wal.Open(wal.Options{
			Dir:     rc.WALDir,
			Sync:    rc.WALSync,
			Metrics: wal.NewMetrics(g.reg),
			Journal: g.cfg.Journal,
		})
		if err != nil {
			return fmt.Errorf("gateway: wal: %w", err)
		}
		// Recovered entries are requeued ahead of fresh traffic, oldest
		// first, with sent=false: this process never shipped them, so their
		// first ship is not a same-session replay — wal_records_replayed_total
		// already accounts for the restart replay. Recovered marks them so
		// the sender re-opens a wal_replay span on each segment's original
		// trace (the trace context journaled with the segment survives the
		// crash byte-for-byte). They bypass admit, so they are not journaled
		// a second time.
		for _, e := range recovered {
			r.pending = append(r.pending, carried{it: resilience.Item{Seg: e.Seg, WAL: e.ID, Recovered: true}})
		}
		r.wal = wlog
	}
	if h := g.cfg.Health; h != nil {
		// Liveness follows the session state: a gateway mid-redial is
		// unhealthy until the next hello completes.
		h.Register("gateway_backhaul_connected", func() obs.CheckResult {
			if rm.connected.Value() == 1 {
				return obs.Healthy("session established")
			}
			return obs.Unhealthy("no backhaul session")
		})
		// Saturation is a readiness problem, not a liveness one: the
		// gateway is alive and degrading gracefully, but new load drops.
		h.RegisterReadiness("gateway_spool_headroom", func() obs.CheckResult {
			depth := r.spool.Len()
			if depth >= rc.SpoolCapacity {
				return obs.Unhealthy(fmt.Sprintf("spool saturated at %d/%d", depth, rc.SpoolCapacity))
			}
			return obs.Healthy(fmt.Sprintf("%d/%d spooled", depth, rc.SpoolCapacity))
		})
		if r.wal != nil {
			// A wedged WAL cannot journal anything: the gateway still ships
			// from memory but has lost its crash durability, which is a
			// liveness-grade fault for a durably-configured gateway.
			h.Register("wal_dir_ready", func() obs.CheckResult {
				if err := r.wal.Wedged(); err != nil {
					return obs.Unhealthy(fmt.Sprintf("wal wedged: %v", err))
				}
				return obs.Healthy("wal dir writable")
			})
			// Backlog is readiness: an oversized unacked window means the next
			// restart replays a burst the cloud has to chew through before new
			// traffic flows.
			h.RegisterReadiness("wal_backlog_headroom", func() obs.CheckResult {
				depth := r.wal.Backlog()
				if depth > DefaultWALBacklogMax {
					return obs.Unhealthy(fmt.Sprintf("replay backlog %d exceeds %d", depth, DefaultWALBacklogMax))
				}
				return obs.Healthy(fmt.Sprintf("%d/%d unacked records", depth, DefaultWALBacklogMax))
			})
		}
	}

	// Feeder: keep detecting no matter what the backhaul is doing.
	quit := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		defer r.spool.Close()
		g.feed(captures, quit, r.admit)
	}()

	for {
		finished, lastErr := r.connect()
		if finished {
			close(quit)
			<-feederDone
			r.closeWAL()
			return nil
		}
		if errors.Is(lastErr, resilience.ErrKilled) {
			// Simulated SIGKILL: abandon all process state in place — no
			// degraded drain, no WAL sync or compaction — so a restart
			// exercises the genuine crash-recovery path against whatever
			// happened to reach the platter.
			close(quit)
			<-feederDone
			if r.wal != nil {
				r.wal.Abandon()
			}
			return lastErr
		}
		d, ok := r.backoff.Next()
		if !ok {
			rm.backoffMillis.Set(0)
			close(quit)
			<-feederDone
			// The backhaul is gone for good: drain everything still queued
			// through the degraded path so it is accounted as dropped, then
			// surface the failure.
			for it := range r.source {
				r.degradeItem(it)
			}
			rm.spoolDepth.Set(0)
			for _, c := range r.pending {
				r.degradeItem(c.it)
			}
			r.pending = nil
			r.closeWAL()
			return r.backoff.Err(lastErr)
		}
		// Surface the wait on /metrics while it is happening: an operator
		// watching a flapping gateway sees the current backoff delay, not
		// just a reconnect counter after the fact.
		g.cfg.Journal.Record("gateway_redial_backoff", d.Milliseconds())
		rm.backoffMillis.Set(d.Milliseconds())
		time.Sleep(d)
		rm.backoffMillis.Set(0)
	}
}

// connect dials one backhaul connection and runs a session over it. The
// run owns the dialed stream and closes it when the session ends.
func (r *resilientRun) connect() (finished bool, err error) {
	r.rm.dialAttempts.Inc()
	rwc, err := r.rc.Dial()
	if err != nil {
		r.rm.dialFailures.Inc()
		return false, err
	}
	defer rwc.Close()
	return r.session(rwc)
}

// session drives one connection from hello to death or completion — the
// only code that speaks the gateway side of the backhaul protocol. It
// returns finished=true when every admitted segment has been acknowledged
// and the capture stream is exhausted; otherwise the unacknowledged window
// and unsent backlog are carried over in r.pending for the next session
// (RunResilient redials; Run returns the error). The stream stays the
// caller's: session closes it only to tear down a failing session.
func (r *resilientRun) session(rw io.ReadWriter) (finished bool, err error) {
	g := r.g
	// Session spans get their own trace, minted from the gateway ID and
	// session ordinal under a salt that cannot collide with segment traces,
	// so per-gateway session timelines stay distinct fleet-wide.
	sp := g.tracer.Start("gateway-session", obs.MintTraceID(g.idHash^obs.SiteID("session"), int64(r.sessions)+1))
	defer sp.End()
	conn := backhaul.NewConn(resilience.WithDeadlines(rw, r.rc.ReadTimeout, r.rc.WriteTimeout))
	conn.SetMetrics(backhaul.NewConnMetrics(g.reg))
	if err := conn.SendHello(r.hello); err != nil {
		return false, fmt.Errorf("gateway: hello: %w", err)
	}
	typ, payload, err := conn.ReadMessage()
	if err != nil {
		return false, fmt.Errorf("gateway: hello ack: %w", err)
	}
	if typ != backhaul.MsgHelloAck {
		return false, fmt.Errorf("gateway: expected hello ack, got message type %d", typ)
	}
	ack, err := backhaul.ParseHelloAck(payload)
	if err != nil {
		return false, fmt.Errorf("gateway: bad hello ack: %w", err)
	}
	// Window sizing is re-derived every session: a redial may land on a
	// plane whose shard count or admission bounds changed.
	window := scaleWindow(g.cfg.Window, ack)
	// Established: acknowledged and ready to ship. Consecutive-failure
	// accounting restarts here, and anything after the first session is by
	// definition a reconnect.
	sp.Stage("established", 0, float64(window))
	g.cfg.Journal.Record("gateway_session_establish", int64(window))
	// A fresh session ends any degraded episode: the backhaul is carrying
	// segments again.
	if r.degraded.CompareAndSwap(true, false) {
		g.cfg.Journal.Record("gateway_degraded_exit", int64(len(r.source)))
	}
	r.rm.connected.Set(1)
	defer r.rm.connected.Set(0)
	if r.sessions > 0 {
		r.rm.reconnects.Inc()
	}
	r.sessions++
	r.backoff.Reset()

	// Reader: parse cloud replies into ack events. Capacity covers the
	// deepest possible in-flight window plus slack, so the sends below can
	// never block long enough to deadlock session teardown.
	acks := make(chan ackEvent, 2*window+16)
	readerDone := make(chan error, 1)
	go func() {
		// The terminal error is buffered and the channel then closed, so
		// every teardown path can wait on readerDone even after another
		// path already consumed the error value.
		defer close(readerDone)
		for {
			typ, payload, err := conn.ReadMessage()
			if err != nil {
				readerDone <- err
				return
			}
			// A reply that does not parse cannot retire its in-flight slot,
			// so it is session-fatal like a corrupted segment (DESIGN.md §11):
			// the window would otherwise never drain.
			switch typ {
			case backhaul.MsgFrames:
				rep, err := backhaul.ParseFrames(payload)
				if err != nil {
					g.m.badReports.Inc()
					readerDone <- fmt.Errorf("bad frames report: %w", err)
					return
				}
				acks <- ackEvent{seq: rep.Seq, report: rep}
			case backhaul.MsgBusy:
				seq, err := backhaul.ParseBusy(payload)
				if err != nil {
					g.m.badReports.Inc()
					readerDone <- fmt.Errorf("bad busy reject: %w", err)
					return
				}
				acks <- ackEvent{seq: seq, busy: true}
			case backhaul.MsgBye:
				readerDone <- io.EOF
				return
			default:
				g.m.badReports.Inc()
			}
		}
	}()

	var (
		inflight []flight
		seq      uint64
	)
	apply := func(a ackEvent) {
		idx := -1
		for i := range inflight {
			if inflight[i].seq == a.seq {
				idx = i
				break
			}
		}
		if idx < 0 {
			return // reply for a seq we no longer track; harmless
		}
		fl := inflight[idx]
		inflight = append(inflight[:idx], inflight[idx+1:]...)
		// Either reply is the segment's final disposition — a busy reject is
		// never reshipped — so the WAL record retires here.
		r.ack(fl.it)
		if a.busy {
			g.m.busyRejects.Inc()
			g.cfg.Journal.Record("gateway_busy_reject", int64(a.seq))
			return
		}
		if r.reports != nil {
			r.reports(a.report)
		}
	}
	// die tears the session down after a failure: force the reader out,
	// apply every reply that did arrive (so only truly unacknowledged
	// segments replay), and carry the rest to the next session.
	die := func(e error) (bool, error) {
		// The session is already failing for error e; the close is only
		// there to force the reader out of its blocked ReadMessage.
		if c, ok := rw.(io.Closer); ok {
			//lint:ignore errdrop close error is superseded by the session error being returned
			_ = c.Close()
		}
		for {
			select {
			case a := <-acks:
				apply(a)
			case <-readerDone:
				for {
					select {
					case a := <-acks:
						apply(a)
					default:
						left := make([]carried, 0, len(inflight)+len(r.pending))
						for _, fl := range inflight {
							left = append(left, carried{it: fl.it, sent: true})
						}
						left = append(left, r.pending...)
						r.pending = left
						sp.Stage("died", 0, float64(len(left)))
						g.cfg.Journal.Record("gateway_session_die", int64(len(left)))
						return false, e
					}
				}
			}
		}
	}
	sendItem := func(c carried) error {
		itsp := c.it.Span
		ephemeral := false
		if itsp == nil && c.it.Seg.Trace != 0 && (c.sent || c.it.Recovered) {
			// The segment's original span closed with an earlier ship (or
			// died with a previous process), but the segment still carries
			// its minted trace ID: open a short replay span on that same
			// trace and re-parent the wire context to it, so the cloud-side
			// span of this shipment stitches under a span that exists.
			itsp = g.tracer.Start("gateway-replay", c.it.Seg.Trace)
			ephemeral = itsp != nil
			stage := "replay"
			if c.it.Recovered {
				stage = "wal_replay"
			}
			itsp.Stage(stage, 0, float64(len(c.it.Seg.Samples)))
			if ephemeral {
				c.it.Seg.Parent = itsp.SpanID()
			}
		} else if c.sent {
			// Reship of an item whose first attempt died mid-write: the
			// span is still live, the replay lands on it.
			itsp.Stage("replay", 0, float64(len(c.it.Seg.Samples)))
		}
		tShip := itsp.Now()
		n, err := conn.SendSegmentSeq(seq, c.it.Seg)
		if err != nil {
			// End an ephemeral replay span even on failure: the write may
			// have reached the cloud before the connection died, and its
			// child span must not be orphaned. The next attempt re-parents
			// to a fresh replay span.
			if ephemeral {
				itsp.End()
			}
			return err
		}
		g.m.wireBytes.Add(uint64(n))
		if c.sent {
			r.rm.replayed.Inc()
		}
		// The span is still live on first successful ship (and on the
		// reship of an item whose first attempt died mid-write).
		if itsp != nil {
			itsp.Stage("encode_ship", itsp.Now()-tShip, float64(n))
			itsp.End()
			c.it.Span = nil
		}
		inflight = append(inflight, flight{it: c.it, seq: seq})
		seq++
		return nil
	}

	for {
		// Fill the window: carried backlog first (oldest segments, replay
		// order), then fresh segments from the spool.
		for len(inflight) < window && len(r.pending) > 0 {
			c := r.pending[0]
			if err := sendItem(c); err != nil {
				return die(fmt.Errorf("gateway: replay ship: %w", err))
			}
			r.pending = r.pending[1:]
		}
		if r.drained && len(r.pending) == 0 && len(inflight) == 0 {
			// Every admitted segment acknowledged and no more captures:
			// orderly shutdown. The work is complete even if the bye
			// exchange itself fails.
			if err := conn.SendBye(); err != nil {
				_, _ = die(err)
				return true, nil
			}
			for {
				select {
				case a := <-acks:
					apply(a)
				case <-readerDone:
					return true, nil
				}
			}
		}
		var fresh <-chan resilience.Item
		if len(inflight) < window && len(r.pending) == 0 && !r.drained {
			fresh = r.source
		}
		select {
		case it, ok := <-fresh:
			if !ok {
				r.drained = true
				continue
			}
			r.rm.spoolDepth.Set(int64(len(r.source)))
			if err := sendItem(carried{it: it}); err != nil {
				// The item left the source but never made it into the
				// in-flight window: requeue it ahead of the backlog (it is
				// older than anything still queued, newer than inflight,
				// which die prepends) or it would be lost with the session.
				// It touched the wire, so its reshipment is a replay.
				r.pending = append([]carried{{it: it, sent: true}}, r.pending...)
				return die(fmt.Errorf("gateway: ship: %w", err))
			}
		case a := <-acks:
			apply(a)
		case err := <-readerDone:
			return die(fmt.Errorf("gateway: session read: %w", err))
		}
	}
}
