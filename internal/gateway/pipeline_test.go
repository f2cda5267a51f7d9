package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/phy/xbee"
	"repro/internal/rng"
)

// shipCapture builds a capture holding one XBee packet that the gateway
// will detect and ship.
func shipCapture(t *testing.T, seed uint64, payload []byte) []complex128 {
	t.Helper()
	gen := rng.New(seed)
	sig, err := xbee.Default().Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	return channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 12}}, gen, fs)
}

func TestRunWindowedPipelineWithFarm(t *testing.T) {
	// A v2 gateway pipelines several captures' segments into a farm-backed
	// cloud; every segment must come back as a frames report, none as busy.
	ts := techs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()

	const captureCount = 3
	payloads := [][]byte{[]byte("capture zero"), []byte("capture one"), []byte("capture two")}
	captures := make(chan []complex128, captureCount)
	for i := 0; i < captureCount; i++ {
		captures <- shipCapture(t, uint64(40+i), payloads[i])
	}
	close(captures)

	a, b := net.Pipe()
	errCh := make(chan error, 2)
	var reports []backhaul.FramesReport
	go func() { errCh <- svc.ServeConn(b) }()
	go func() {
		errCh <- g.Run(a, captures, func(r backhaul.FramesReport) {
			reports = append(reports, r)
		})
	}()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.SegmentsShipped == 0 {
		t.Fatal("nothing shipped")
	}
	if len(reports) != st.SegmentsShipped {
		t.Fatalf("%d reports for %d shipped segments", len(reports), st.SegmentsShipped)
	}
	// Replies must be sequenced in shipping order.
	for i, r := range reports {
		if r.Seq != uint64(i) {
			t.Fatalf("report %d has seq %d", i, r.Seq)
		}
	}
	got := map[string]bool{}
	for _, r := range reports {
		for _, f := range r.Frames {
			got[string(f.Payload)] = true
		}
	}
	for _, p := range payloads {
		if !got[string(p)] {
			t.Fatalf("payload %q never reported (got %v)", p, got)
		}
	}
	if st.BusyRejects != 0 || st.BadReports != 0 {
		t.Fatalf("stats %+v", st)
	}
	if fst := svc.Farm().Snapshot(); int(fst.Admitted) != st.SegmentsShipped || fst.Rejected != 0 {
		t.Fatalf("farm stats %+v vs shipped %d", fst, st.SegmentsShipped)
	}
}

// scriptedCloud serves one session on rw as a minimal fake cloud: it acks
// the hello, answers every segment through reply (nil: an empty frames
// report), and acks the bye.
func scriptedCloud(rw io.ReadWriter, reply func(c *backhaul.Conn, seq uint64, seg backhaul.Segment) error) error {
	conn := backhaul.NewConn(rw)
	for {
		typ, payload, err := conn.ReadMessage()
		if err != nil {
			return err
		}
		switch typ {
		case backhaul.MsgHello:
			if err := conn.SendHelloAck(backhaul.HelloAck{Version: backhaul.Version}); err != nil {
				return err
			}
		case backhaul.MsgSegmentSeq:
			seq, seg, err := backhaul.DecodeSegmentSeq(payload)
			if err != nil {
				return err
			}
			if reply != nil {
				err = reply(conn, seq, seg)
			} else {
				err = conn.SendFrames(backhaul.FramesReport{SegmentStart: seg.Start, Seq: seq})
			}
			if err != nil {
				return err
			}
		case backhaul.MsgBye:
			return conn.SendBye()
		default:
			return fmt.Errorf("fake cloud: unexpected message type %d", typ)
		}
	}
}

// garbleFirst answers the first segment it sees (across every session
// sharing the flag) with a frames payload that is not JSON.
func garbleFirst(garbled *atomic.Bool) func(*backhaul.Conn, uint64, backhaul.Segment) error {
	return func(c *backhaul.Conn, seq uint64, seg backhaul.Segment) error {
		if garbled.CompareAndSwap(false, true) {
			return c.WriteMessage(backhaul.MsgFrames, []byte{0xff, 0xfe})
		}
		return c.SendFrames(backhaul.FramesReport{SegmentStart: seg.Start, Seq: seq})
	}
}

// TestRunCountsBadReports: a reply the gateway cannot parse is counted and
// is session-fatal, because its in-flight slot can never be retired. Run
// returns the error; RunResilient redials and replays the window.
func TestRunCountsBadReports(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
		if err != nil {
			t.Fatal(err)
		}
		captures := make(chan []complex128, 1)
		captures <- shipCapture(t, 50, []byte("garbled reply"))
		close(captures)

		a, b := net.Pipe()
		defer b.Close()
		var garbled atomic.Bool
		srvErr := make(chan error, 1)
		go func() { srvErr <- scriptedCloud(b, garbleFirst(&garbled)) }()
		err = g.Run(a, captures, nil)
		if err == nil || !strings.Contains(err.Error(), "bad frames report") {
			t.Fatalf("Run err = %v, want the unparseable reply surfaced", err)
		}
		<-srvErr // the gateway tore the stream down; the cloud's read error is expected
		if st := g.Stats(); st.SegmentsShipped != 1 || st.BadReports != 1 {
			t.Fatalf("stats %+v, want 1 shipped and 1 bad report", st)
		}
	})
	t.Run("RunResilient", func(t *testing.T) {
		g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
		if err != nil {
			t.Fatal(err)
		}
		captures := make(chan []complex128, 1)
		captures <- shipCapture(t, 50, []byte("garbled reply"))
		close(captures)

		var garbled atomic.Bool
		srvErr := make(chan error, 2)
		dial := func() (io.ReadWriteCloser, error) {
			a, b := net.Pipe()
			go func() { srvErr <- scriptedCloud(b, garbleFirst(&garbled)) }()
			return a, nil
		}
		var reports atomic.Int64
		err = g.RunResilient(Resilient{Dial: dial, Retry: resiliencePolicy(time.Millisecond)}, captures,
			func(backhaul.FramesReport) { reports.Add(1) })
		if err != nil {
			t.Fatalf("RunResilient must survive a garbled reply: %v", err)
		}
		if first, second := <-srvErr, <-srvErr; (first == nil) == (second == nil) {
			t.Fatalf("want one torn-down and one clean cloud session, got %v and %v", first, second)
		}
		if st := g.Stats(); st.SegmentsShipped != 1 || st.BadReports != 1 {
			t.Fatalf("stats %+v, want 1 shipped and 1 bad report", st)
		}
		if got := counter(t, g, "gateway_reconnects_total"); got != 1 {
			t.Fatalf("reconnects = %d, want 1", got)
		}
		if got := counter(t, g, "gateway_replayed_segments_total"); got != 1 {
			t.Fatalf("replayed = %d, want 1", got)
		}
		if got := reports.Load(); got != 1 {
			t.Fatalf("%d reports delivered, want the replayed segment's one", got)
		}
	})
}

// TestRunBackpressuresAtFullWindow pins the contract Run keeps that
// RunResilient does not: there is no queue but the window. With Window 1
// and a cloud sitting on its first reply, the capture source must stall —
// a spool in Run's place would keep swallowing captures — and once the
// cloud moves, every segment ships: nothing dropped, nothing degraded,
// reports in segment order, all from the one goroutine that called Run
// (the callback appends unsynchronized; -race polices that).
func TestRunBackpressuresAtFullWindow(t *testing.T) {
	ts := resTechs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	captures := make(chan []complex128, n)
	for i := 0; i < n; i++ {
		captures <- techCapture(t, ts[0], uint64(90+i), []byte{'s', 'e', 'g', byte('0' + i)})
	}
	close(captures)

	detected := g.Registry().Counter("gateway_segments_detected_total")
	processed := g.Registry().Counter("gateway_captures_processed_total")
	var before, after uint64
	slowFirst := func(c *backhaul.Conn, seq uint64, seg backhaul.Segment) error {
		if seq == 0 {
			// Segment 0 fills the window. Once segment 1 is detected the
			// feeder is at the rendezvous with it and must stay there; give
			// it ample time to (wrongly) go back for another capture.
			for detected.Value() < 2 {
				time.Sleep(time.Millisecond)
			}
			before = processed.Value()
			time.Sleep(100 * time.Millisecond)
			after = processed.Value()
		}
		return c.SendFrames(backhaul.FramesReport{SegmentStart: seg.Start, Seq: seq})
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- scriptedCloud(b, slowFirst) }()

	var reports []backhaul.FramesReport
	if err := g.Run(a, captures, func(r backhaul.FramesReport) { reports = append(reports, r) }); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
	if before == n || after != before {
		t.Fatalf("captures processed went %d -> %d (of %d) while the window was full: Run is queueing", before, after, n)
	}
	if st := g.Stats(); st.SegmentsShipped != n || len(reports) != n {
		t.Fatalf("%d reports for %d shipped segments, want %d each", len(reports), st.SegmentsShipped, n)
	}
	for i, r := range reports {
		if r.Seq != uint64(i) || (i > 0 && r.SegmentStart <= reports[i-1].SegmentStart) {
			t.Fatalf("report %d out of segment order: seq %d start %d", i, r.Seq, r.SegmentStart)
		}
	}
	for _, name := range []string{"gateway_spool_dropped_total", "gateway_degraded_frames_total"} {
		if got := counter(t, g, name); got != 0 {
			t.Fatalf("%s = %d, want 0", name, got)
		}
	}
}

// TestRunReturnsSessionError: Run is exactly one session. A cloud that
// closes mid-session makes it return an error — no redial, no replay, no
// degraded decode of what was in flight.
func TestRunReturnsSessionError(t *testing.T) {
	ts := resTechs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128, 2)
	captures <- techCapture(t, ts[0], 95, []byte("in flight"))
	captures <- techCapture(t, ts[0], 96, []byte("never sent"))
	close(captures)

	a, b := net.Pipe()
	defer a.Close()
	hangUp := func(*backhaul.Conn, uint64, backhaul.Segment) error { return b.Close() }
	go func() { _ = scriptedCloud(b, hangUp) }()

	delivered := 0
	err = g.Run(a, captures, func(backhaul.FramesReport) { delivered++ })
	if err == nil {
		t.Fatal("Run returned nil after the cloud closed mid-session")
	}
	if delivered != 0 {
		t.Fatalf("%d reports delivered for segments the cloud never answered", delivered)
	}
	for _, name := range []string{
		"gateway_dial_attempts_total", "gateway_reconnects_total", "gateway_replayed_segments_total",
		"gateway_spool_dropped_total", "gateway_degraded_frames_total",
	} {
		if got := counter(t, g, name); got != 0 {
			t.Fatalf("%s = %d, want 0", name, got)
		}
	}
}

func TestRunBusyRejectCounted(t *testing.T) {
	// A v2 "cloud" that rejects every segment with busy: the gateway must
	// count the rejects, free its window, and finish the session cleanly.
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128, 1)
	captures <- shipCapture(t, 51, []byte("rejected"))
	close(captures)

	a, b := net.Pipe()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- scriptedCloud(b, func(c *backhaul.Conn, seq uint64, _ backhaul.Segment) error {
			return c.SendBusy(seq)
		})
	}()
	if err := g.Run(a, captures, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.SegmentsShipped == 0 || st.BusyRejects != st.SegmentsShipped {
		t.Fatalf("stats %+v", st)
	}
}

func TestLikelyCollisionIgnoresDecodedTech(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), EdgeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(52)
	payload := []byte("clean xbee frame")
	sig, _ := xbee.Default().Modulate(payload, fs)
	samples := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, fs)
	// The segment contains exactly the decoded packet: its own preamble
	// scores far above the collision score and must not be mistaken for a
	// second colliding transmission.
	cands := g.edge.Classify(samples)
	if len(cands) == 0 || cands[0].Tech.Name() != "xbee" || cands[0].Score <= 0.15 {
		t.Fatalf("candidates %+v", cands)
	}
	frame := g.edge.EdgeDecode(samples, false)
	if frame == nil {
		t.Fatal("clean single-tech segment classified as collision")
	}
	if frame.Tech != "xbee" || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("edge decode %+v", frame)
	}
}
