package gateway

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/phy"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// resTechs is the short-range tech set used by the resilience tests. It
// deliberately omits LoRa: segment extraction pads every detection by the
// largest packet airtime in the set, and LoRa's (~174k samples at 1 MHz)
// would merge every capture in these tests into one giant segment. With
// xbee+zwave the pad is 42k samples, so captures spaced ~100k apart ship
// as individual segments — which is what replay and drop accounting need.
func resTechs() []phy.Technology {
	return []phy.Technology{xbee.Default(), zwave.Default()}
}

// techCapture builds a capture holding one clean packet of the given
// technology, hot enough that a single edge-decode pass recovers it. The
// 100k-sample noise tail keeps consecutive captures' packets farther apart
// than twice resTechs' maximum packet airtime, so each one becomes its own
// stream segment instead of merging with its neighbors.
func techCapture(t *testing.T, tech phy.Technology, seed uint64, payload []byte) []complex128 {
	t.Helper()
	gen := rng.New(seed)
	sig, err := tech.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	return channel.Mix(len(sig)+100000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 15}}, gen, fs)
}

func counter(t *testing.T, g *Gateway, name string) uint64 {
	t.Helper()
	return g.Registry().Counter(name).Value()
}

// TestRunResilientReplaysUnacked kills the connection mid-window and checks
// the reconnect contract: unacked segments are replayed on the next session
// with fresh monotonic sequence numbers, the acked segment is not replayed,
// every segment is reported exactly once, and the epoch repeats across the
// re-hello.
func TestRunResilientReplaysUnacked(t *testing.T) {
	ts := resTechs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128, 3)
	payloads := [][]byte{[]byte("segment zero"), []byte("segment one"), []byte("segment two")}
	for i, p := range payloads {
		captures <- techCapture(t, ts[0], uint64(60+i), p)
	}
	close(captures)

	a1, b1 := net.Pipe()
	a2, b2 := net.Pipe()
	conns := make(chan net.Conn, 2)
	conns <- a1
	conns <- a2
	dial := func() (io.ReadWriteCloser, error) {
		select {
		case c := <-conns:
			return c, nil
		default:
			return nil, errors.New("no more conns")
		}
	}

	type seen struct {
		seq   uint64
		start int64
	}
	script := make(chan error, 2)
	var epoch1, epoch2 uint64
	var conn1Segs, conn2Segs []seen

	// Session 1: ack the hello, read three segments, ack only the first,
	// then die mid-window.
	go func() {
		script <- func() error {
			c := backhaul.NewConn(b1)
			_, payload, err := c.ReadMessage()
			if err != nil {
				return err
			}
			h, err := backhaul.ParseHello(payload)
			if err != nil {
				return err
			}
			epoch1 = h.Epoch
			if err := c.SendHelloAck(backhaul.HelloAck{Version: backhaul.Version, Window: 8}); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				typ, payload, err := c.ReadMessage()
				if err != nil {
					return err
				}
				if typ != backhaul.MsgSegmentSeq {
					return errors.New("conn1: expected sequenced segment")
				}
				seq, seg, err := backhaul.DecodeSegmentSeq(payload)
				if err != nil {
					return err
				}
				conn1Segs = append(conn1Segs, seen{seq, seg.Start})
			}
			// Ack seq 0, then drop the connection with seqs 1 and 2 unacked.
			if err := c.SendFrames(backhaul.FramesReport{SegmentStart: conn1Segs[0].start, Seq: 0}); err != nil {
				return err
			}
			return b1.Close()
		}()
	}()
	// Session 2: same epoch, replayed window, clean shutdown.
	go func() {
		script <- func() error {
			c := backhaul.NewConn(b2)
			_, payload, err := c.ReadMessage()
			if err != nil {
				return err
			}
			h, err := backhaul.ParseHello(payload)
			if err != nil {
				return err
			}
			epoch2 = h.Epoch
			if err := c.SendHelloAck(backhaul.HelloAck{Version: backhaul.Version, Window: 8}); err != nil {
				return err
			}
			for {
				typ, payload, err := c.ReadMessage()
				if err != nil {
					return err
				}
				switch typ {
				case backhaul.MsgSegmentSeq:
					seq, seg, err := backhaul.DecodeSegmentSeq(payload)
					if err != nil {
						return err
					}
					conn2Segs = append(conn2Segs, seen{seq, seg.Start})
					if err := c.SendFrames(backhaul.FramesReport{SegmentStart: seg.Start, Seq: seq}); err != nil {
						return err
					}
				case backhaul.MsgBye:
					return c.SendBye()
				default:
					return errors.New("conn2: unexpected message")
				}
			}
		}()
	}()

	var mu sync.Mutex
	var reports []backhaul.FramesReport
	err = g.RunResilient(Resilient{
		Dial:  dial,
		Retry: resiliencePolicy(1 * time.Millisecond),
	}, captures, func(r backhaul.FramesReport) {
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-script; err != nil {
			t.Fatal(err)
		}
	}

	if epoch1 == 0 || epoch1 != epoch2 {
		t.Fatalf("epoch must repeat across re-hello: %d vs %d", epoch1, epoch2)
	}
	// Per-session sequence numbers are monotonic from zero.
	for i, s := range conn1Segs {
		if s.seq != uint64(i) {
			t.Fatalf("conn1 seg %d has seq %d", i, s.seq)
		}
	}
	for i, s := range conn2Segs {
		if s.seq != uint64(i) {
			t.Fatalf("conn2 seg %d has seq %d", i, s.seq)
		}
	}
	// Exactly the two unacked segments replay, oldest first.
	if len(conn1Segs) != 3 || len(conn2Segs) != 2 {
		t.Fatalf("conn1 saw %d segments, conn2 saw %d; want 3 and 2", len(conn1Segs), len(conn2Segs))
	}
	if conn2Segs[0].start != conn1Segs[1].start || conn2Segs[1].start != conn1Segs[2].start {
		t.Fatalf("replayed starts %v, want %v", conn2Segs, conn1Segs[1:])
	}
	// Every shipped segment reported exactly once.
	mu.Lock()
	startCount := map[int64]int{}
	for _, r := range reports {
		startCount[r.SegmentStart]++
	}
	mu.Unlock()
	for _, s := range conn1Segs {
		if startCount[s.start] != 1 {
			t.Fatalf("segment %d reported %d times", s.start, startCount[s.start])
		}
	}
	if got := counter(t, g, "gateway_reconnects_total"); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
	if got := counter(t, g, "gateway_replayed_segments_total"); got != 2 {
		t.Fatalf("replayed = %d, want 2", got)
	}
	if got := counter(t, g, "gateway_spool_dropped_total"); got != 0 {
		t.Fatalf("drops = %d, want 0", got)
	}
	if st := g.Stats(); st.SegmentsShipped != 3 {
		t.Fatalf("shipped = %d, want 3", st.SegmentsShipped)
	}
}

// resiliencePolicy is a fast deterministic retry policy for tests.
func resiliencePolicy(base time.Duration) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   base,
		MaxDelay:    4 * base,
		Seed:        1,
	}
}

// TestRunResilientSpoolOverflowDegraded saturates a capacity-1 spool while
// the dial is held off, then lets one session through: the four oldest
// segments must be dropped in order to the degraded edge-decode path (with
// per-technology drop counters), and the survivor decoded by a real cloud.
func TestRunResilientSpoolOverflowDegraded(t *testing.T) {
	ts := resTechs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()

	xb, zw := ts[0], ts[1]
	specs := []struct {
		tech    phy.Technology
		payload string
	}{
		{xb, "drop zero"}, {xb, "drop one"}, {zw, "drop two"}, {zw, "drop three"}, {xb, "survivor"},
	}
	captures := make(chan []complex128, len(specs))
	for i, s := range specs {
		captures <- techCapture(t, s.tech, uint64(70+i), []byte(s.payload))
	}
	close(captures)

	dropped := g.Registry().Counter("gateway_spool_dropped_total")
	svcErr := make(chan error, 1)
	dial := func() (io.ReadWriteCloser, error) {
		// Hold the backhaul down until the spool has overflowed four times,
		// then come back up with a real cloud on the other end.
		for dropped.Value() < 4 {
			time.Sleep(time.Millisecond)
		}
		a, b := net.Pipe()
		go func() { svcErr <- svc.ServeConn(b) }()
		return a, nil
	}

	var mu sync.Mutex
	var reports []backhaul.FramesReport
	err = g.RunResilient(Resilient{
		Dial:          dial,
		Retry:         resiliencePolicy(time.Millisecond),
		SpoolCapacity: 1,
	}, captures, func(r backhaul.FramesReport) {
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-svcErr; err != nil {
		t.Fatal(err)
	}

	if got := dropped.Value(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	if x := counter(t, g, "gateway_spool_dropped_xbee_total"); x != 2 {
		t.Fatalf("xbee drops = %d, want 2", x)
	}
	if z := counter(t, g, "gateway_spool_dropped_zwave_total"); z != 2 {
		t.Fatalf("zwave drops = %d, want 2", z)
	}
	if u := counter(t, g, "gateway_spool_dropped_unknown_total"); u != 0 {
		t.Fatalf("unknown drops = %d, want 0", u)
	}
	if df := counter(t, g, "gateway_degraded_frames_total"); df != 4 {
		t.Fatalf("degraded frames = %d, want 4", df)
	}
	if rc := counter(t, g, "gateway_reconnects_total"); rc != 0 {
		t.Fatalf("reconnects = %d, want 0", rc)
	}

	// Degraded reports carry the dropped payloads oldest-first; the
	// survivor arrives from the cloud.
	mu.Lock()
	defer mu.Unlock()
	var degraded []string
	cloudSeen := false
	for _, r := range reports {
		if len(r.Frames) != 1 {
			t.Fatalf("report %+v has %d frames, want 1", r.SegmentStart, len(r.Frames))
		}
		p := string(r.Frames[0].Payload)
		if p == "survivor" {
			cloudSeen = true
			continue
		}
		degraded = append(degraded, p)
	}
	want := []string{"drop zero", "drop one", "drop two", "drop three"}
	if len(degraded) != len(want) {
		t.Fatalf("degraded payloads %v, want %v", degraded, want)
	}
	for i := range want {
		if degraded[i] != want[i] {
			t.Fatalf("drop order %v, want oldest-first %v", degraded, want)
		}
	}
	if !cloudSeen {
		t.Fatal("surviving segment never decoded by the cloud")
	}
}

func TestRunResilientRetriesExhausted(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128)
	close(captures)
	dial := func() (io.ReadWriteCloser, error) { return nil, errors.New("network down") }
	err = g.RunResilient(Resilient{
		Dial: dial,
		Retry: resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	}, captures, nil)
	if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("err = %v, want retries-exhausted", err)
	}
	if !strings.Contains(err.Error(), "network down") {
		t.Fatalf("err = %v, must wrap the last dial failure", err)
	}
	// The initial attempt plus MaxAttempts retries.
	if got := counter(t, g, "gateway_dial_attempts_total"); got != 4 {
		t.Fatalf("dial attempts = %d, want 4", got)
	}
	if got := counter(t, g, "gateway_dial_failures_total"); got != 4 {
		t.Fatalf("dial failures = %d, want 4", got)
	}
	if got := counter(t, g, "gateway_reconnects_total"); got != 0 {
		t.Fatalf("reconnects = %d, want 0", got)
	}
}

func TestRunResilientValidation(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunResilient(Resilient{}, nil, nil); err == nil {
		t.Fatal("nil Dial must be rejected")
	}
}
