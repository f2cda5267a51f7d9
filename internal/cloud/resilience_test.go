package cloud

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
)

// helloEpoch performs the v2 handshake with an explicit epoch.
func helloEpoch(t *testing.T, conn *backhaul.Conn, id string, epoch uint64) {
	t.Helper()
	err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: id, SampleRate: fs, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	typ, _, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != backhaul.MsgHelloAck {
		t.Fatalf("expected hello ack, got message type %d", typ)
	}
}

// TestDedupAnswersReplayFromCache replays one segment on an epoch-bearing
// session (as a reconnecting gateway does) and checks it is decoded exactly
// once: the replay must be answered from cache, with the same frames, and
// counted on cloud_segments_deduped_total.
func TestDedupAnswersReplayFromCache(t *testing.T) {
	svc := NewService(techs())
	var decodes atomic.Uint64
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 4, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		decodes.Add(1)
		return backhaul.FramesReport{
			SegmentStart: seg.Start,
			Frames:       []backhaul.FrameReport{{Tech: "xbee", Payload: []byte("cached"), CRCOK: true, Offset: seg.Start}},
		}, cancel.Stats{}, nil
	}})
	defer svc.Close()

	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	helloEpoch(t, conn, "gw-dedup", 7)

	seg := backhaul.Segment{Start: 4200, SampleRate: fs, Samples: make([]complex128, 64)}
	// The same segment twice with fresh sequence numbers — exactly what a
	// reconnect replay looks like from the cloud's side of one session.
	// Reading each reply before the next send serializes the replay behind
	// the first decode (a real replay arrives a whole reconnect later):
	// the cloud caches the report before writing the reply, so once reply
	// 0 is on the wire the replay must hit the cache.
	var replies []sessionReply
	for seq := uint64(0); seq < 2; seq++ {
		if _, err := conn.SendSegmentSeq(seq, seg); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if typ != backhaul.MsgFrames {
			t.Fatalf("reply %d: unexpected message type %d", seq, typ)
		}
		report, err := backhaul.ParseFrames(payload)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, sessionReply{seq: report.Seq, report: report})
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if rest, err := readV2Replies(conn); err != nil || len(rest) != 0 {
		t.Fatalf("after bye: %d extra replies, err %v", len(rest), err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want 2", len(replies))
	}
	for i, r := range replies {
		if r.busy {
			t.Fatalf("reply %d is busy", i)
		}
		if r.seq != uint64(i) {
			t.Fatalf("reply %d has seq %d", i, r.seq)
		}
		if len(r.report.Frames) != 1 || string(r.report.Frames[0].Payload) != "cached" {
			t.Fatalf("reply %d report %+v", i, r.report)
		}
	}
	if n := decodes.Load(); n != 1 {
		t.Fatalf("segment decoded %d times, want 1", n)
	}
	if n := svc.Registry().Counter("cloud_segments_deduped_total").Value(); n != 1 {
		t.Fatalf("deduped = %d, want 1", n)
	}
}

// TestInlineDedupRepliesInOrder pins the single reply path without a farm:
// a replayed segment (cache hit), a fresh one (inline decode) and the
// replay again, pipelined on one session, are each answered through the
// sequencer in segment order, and each segment is decoded exactly once.
func TestInlineDedupRepliesInOrder(t *testing.T) {
	svc := NewService(techs())
	segA, payload := makeSegment(t, 31)
	segB, _ := makeSegment(t, 32)
	segB.Start = 2_000_000
	session := func(segs ...backhaul.Segment) []sessionReply {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		done := make(chan error, 1)
		go func() { done <- svc.ServeConn(b) }()
		conn := backhaul.NewConn(a)
		helloEpoch(t, conn, "gw-inline", 9)
		var replies []sessionReply
		readErr := make(chan error, 1)
		go func() {
			var err error
			replies, err = readV2Replies(conn)
			readErr <- err
		}()
		for i, seg := range segs {
			if _, err := conn.SendSegmentSeq(uint64(i), seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := conn.SendBye(); err != nil {
			t.Fatal(err)
		}
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return replies
	}
	session(segA) // a first session decodes A into the replay cache
	replies := session(segA, segB, segA)
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3: %+v", len(replies), replies)
	}
	for i, want := range []backhaul.Segment{segA, segB, segA} {
		r := replies[i]
		if r.busy || r.seq != uint64(i) || r.report.SegmentStart != want.Start ||
			len(r.report.Frames) != 1 || string(r.report.Frames[0].Payload) != string(payload) {
			t.Fatalf("reply %d = %+v, want the frame of the segment at %d under seq %d", i, r, want.Start, i)
		}
	}
	reg := svc.Registry()
	if n := reg.Counter("cloud_segments_deduped_total").Value(); n != 2 {
		t.Fatalf("deduped = %d, want 2", n)
	}
	if n := reg.Counter("cloud_segments_decoded_total").Value(); n != 2 {
		t.Fatalf("decoded = %d segments, want 2 (A and B once each)", n)
	}
}

// TestDedupDisabledWithoutEpoch: a legacy gateway (no epoch in hello) gets
// no dedup — the cloud must decode every arrival.
func TestDedupDisabledWithoutEpoch(t *testing.T) {
	svc := NewService(techs())
	var decodes atomic.Uint64
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 4, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		decodes.Add(1)
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}})
	defer svc.Close()

	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	helloEpoch(t, conn, "gw-legacy", 0)
	readErr := make(chan error, 1)
	go func() {
		_, err := readV2Replies(conn)
		readErr <- err
	}()
	seg := backhaul.Segment{Start: 4200, SampleRate: fs, Samples: make([]complex128, 64)}
	for seq := uint64(0); seq < 2; seq++ {
		if _, err := conn.SendSegmentSeq(seq, seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := decodes.Load(); n != 2 {
		t.Fatalf("segment decoded %d times, want 2 without an epoch", n)
	}
	if n := svc.Registry().Counter("cloud_segments_deduped_total").Value(); n != 0 {
		t.Fatalf("deduped = %d, want 0", n)
	}
}

func TestDedupCacheEvictsOldestFirst(t *testing.T) {
	c := &dedupCache{size: 2}
	k := func(start int64) dedupKey { return dedupKey{gateway: "gw", epoch: 1, start: start} }
	for start := int64(0); start < 3; start++ {
		c.put(k(start), backhaul.FramesReport{SegmentStart: start})
	}
	if _, ok := c.get(k(0)); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for start := int64(1); start < 3; start++ {
		rep, ok := c.get(k(start))
		if !ok || rep.SegmentStart != start {
			t.Fatalf("entry %d missing after eviction", start)
		}
	}
	// Re-putting an existing key must not evict anything.
	c.put(k(2), backhaul.FramesReport{SegmentStart: 99})
	if rep, ok := c.get(k(2)); !ok || rep.SegmentStart != 2 {
		t.Fatal("duplicate put replaced the cached report")
	}
}

// TestServerReapsIdleSessions connects a gateway that never speaks: the
// reaper must close its connection after SessionTimeout of silence and
// count it, without touching an active listener.
func TestServerReapsIdleSessions(t *testing.T) {
	svc := NewService(techs())
	srv := svc.NewServer()
	srv.SessionTimeout = 40 * time.Millisecond
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The cloud's hello read must be cut by the reaper.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still alive: read returned data")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := svc.Registry().Counter("cloud_sessions_reaped_total").Value(); n != 1 {
		t.Fatalf("reaped = %d, want 1", n)
	}
}

// flakyListener scripts Accept: transient failures, then real
// connections, then a closed listener.
type flakyListener struct {
	mu       sync.Mutex
	failures int
	conns    []net.Conn
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failures > 0 {
		l.failures--
		return nil, errors.New("accept: too many open files")
	}
	if len(l.conns) > 0 {
		c := l.conns[0]
		l.conns = l.conns[1:]
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeRetriesTransientAcceptErrors: transient Accept failures must be
// counted and retried, not kill the accept loop; a closed listener must
// end Serve cleanly.
func TestServeRetriesTransientAcceptErrors(t *testing.T) {
	svc := NewService(techs())
	srv := svc.NewServer()
	a, b := net.Pipe()
	ln := &flakyListener{failures: 3, conns: []net.Conn{b}}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// The connection survives the accept failures that preceded it.
	conn := backhaul.NewConn(a)
	helloEpoch(t, conn, "gw-flaky", 1)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if _, err := readV2Replies(conn); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := svc.Registry().Counter("cloud_accept_retries_total").Value(); n != 3 {
		t.Fatalf("accept retries = %d, want 3", n)
	}
}
