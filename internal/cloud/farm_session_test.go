package cloud

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
)

// sessionReply is one server answer on a v2 session: a frames report or a
// busy reject, tagged with its segment sequence number.
type sessionReply struct {
	seq    uint64
	busy   bool
	report backhaul.FramesReport
}

// readV2Replies drains one v2 session until the bye ack, collecting frames
// and busy replies in arrival order.
func readV2Replies(conn *backhaul.Conn) ([]sessionReply, error) {
	var replies []sessionReply
	for {
		typ, payload, err := conn.ReadMessage()
		if err != nil {
			return replies, err
		}
		switch typ {
		case backhaul.MsgFrames:
			report, err := backhaul.ParseFrames(payload)
			if err != nil {
				return replies, err
			}
			replies = append(replies, sessionReply{seq: report.Seq, report: report})
		case backhaul.MsgBusy:
			seq, err := backhaul.ParseBusy(payload)
			if err != nil {
				return replies, err
			}
			replies = append(replies, sessionReply{seq: seq, busy: true})
		case backhaul.MsgBye:
			return replies, nil
		default:
			return replies, fmt.Errorf("unexpected message type %d", typ)
		}
	}
}

// helloV2 performs the v2 handshake on conn and returns the cloud's ack.
func helloV2(conn *backhaul.Conn, id string) (backhaul.HelloAck, error) {
	if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: id, SampleRate: fs}); err != nil {
		return backhaul.HelloAck{}, err
	}
	typ, payload, err := conn.ReadMessage()
	if err != nil {
		return backhaul.HelloAck{}, err
	}
	if typ != backhaul.MsgHelloAck {
		return backhaul.HelloAck{}, fmt.Errorf("expected hello ack, got message type %d", typ)
	}
	return backhaul.ParseHelloAck(payload)
}

func TestFarmPipelinedSession(t *testing.T) {
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := backhaul.NewConn(nc)
	ack, err := helloV2(conn, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != backhaul.Version || ack.Window != 8 || ack.Workers != 2 {
		t.Fatalf("hello ack %+v", ack)
	}

	// Ship the whole window before reading anything back: the session must
	// pipeline, and the replies must come back in sequence order.
	const segments = 3
	payloads := make([][]byte, segments)
	done := make(chan struct{})
	var replies []sessionReply
	var readErr error
	go func() {
		defer close(done)
		replies, readErr = readV2Replies(conn)
	}()
	for i := 0; i < segments; i++ {
		seg, payload := makeSegment(t, uint64(20+i))
		payloads[i] = payload
		if _, err := conn.SendSegmentSeq(uint64(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	<-done
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(replies) != segments {
		t.Fatalf("%d replies for %d segments: %+v", len(replies), segments, replies)
	}
	for i, r := range replies {
		if r.seq != uint64(i) || r.busy {
			t.Fatalf("reply %d out of order or rejected: %+v", i, r)
		}
		if len(r.report.Frames) != 1 || !bytes.Equal(r.report.Frames[0].Payload, payloads[i]) {
			t.Fatalf("reply %d report %+v", i, r.report)
		}
	}
	if n, fst := framesDecoded(svc), svc.Farm().Snapshot(); n != segments || fst.Admitted != segments || fst.Completed != segments || fst.Rejected != 0 {
		t.Fatalf("totals n=%d farm=%+v", n, fst)
	}
}

func TestFarmBusyReject(t *testing.T) {
	// One worker, one queue slot, and a decode gated on a channel: the
	// third in-flight segment must be rejected with MsgBusy, deterministically.
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 8)
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 1, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}})
	defer svc.Close()

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if _, err := helloV2(conn, "busy"); err != nil {
		t.Fatal(err)
	}
	tiny := backhaul.Segment{Start: 0, SampleRate: fs, Samples: make([]complex128, 16)}
	// Segment 0 occupies the worker (wait for its dispatch so the queue is
	// empty again), segment 1 the only queue slot; their replies are parked
	// behind the gate, so nothing is written yet and the busy reject for
	// segment 2 queues in the sequencer behind them.
	if _, err := conn.SendSegmentSeq(0, tiny); err != nil {
		t.Fatal(err)
	}
	<-dispatched
	if _, err := conn.SendSegmentSeq(1, tiny); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.SendSegmentSeq(2, tiny); err != nil {
		t.Fatal(err)
	}
	// The write above returns once the session has read segment 2, which is
	// before it reaches TrySubmit: hold the gate until the reject is
	// counted, or the freed worker could admit it.
	waitGauge(t, func() int64 { return int64(svc.Farm().Snapshot().Rejected) }, 1)
	close(gate)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	replies, err := readV2Replies(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("replies %+v", replies)
	}
	for i, r := range replies {
		if r.seq != uint64(i) {
			t.Fatalf("reply order %+v", replies)
		}
	}
	if replies[0].busy || replies[1].busy || !replies[2].busy {
		t.Fatalf("busy pattern %+v", replies)
	}
	if fst := svc.Farm().Snapshot(); fst.Rejected != 1 || fst.Admitted != 2 || fst.Completed != 2 {
		t.Fatalf("farm stats %+v", fst)
	}
}

func TestFarmConcurrentGatewaysRace(t *testing.T) {
	// M gateways pipeline K segments each through one TCP server backed by
	// a shared farm; every segment must be acked in order with its frame,
	// and the totals must add up.
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 4, QueueDepth: 32})
	defer svc.Close()
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		gateways = 3
		segments = 3
	)
	errCh := make(chan error, gateways)
	for g := 0; g < gateways; g++ {
		go func(g int) {
			errCh <- func() error {
				nc, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return err
				}
				defer nc.Close()
				conn := backhaul.NewConn(nc)
				if _, err := helloV2(conn, fmt.Sprintf("gw%d", g)); err != nil {
					return err
				}
				payloads := make([][]byte, segments)
				done := make(chan struct{})
				var replies []sessionReply
				var readErr error
				go func() {
					defer close(done)
					replies, readErr = readV2Replies(conn)
				}()
				for i := 0; i < segments; i++ {
					seg, payload := makeSegment(t, uint64(100+10*g+i))
					payloads[i] = payload
					if _, err := conn.SendSegmentSeq(uint64(i), seg); err != nil {
						return err
					}
				}
				if err := conn.SendBye(); err != nil {
					return err
				}
				<-done
				if readErr != nil {
					return readErr
				}
				if len(replies) != segments {
					return fmt.Errorf("gateway %d: %d replies", g, len(replies))
				}
				for i, r := range replies {
					if r.seq != uint64(i) || r.busy {
						return fmt.Errorf("gateway %d reply %d: %+v", g, i, r)
					}
					if len(r.report.Frames) != 1 || !bytes.Equal(r.report.Frames[0].Payload, payloads[i]) {
						return fmt.Errorf("gateway %d reply %d report %+v", g, i, r.report)
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < gateways; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	n, fst := framesDecoded(svc), svc.Farm().Snapshot()
	if n != gateways*segments {
		t.Fatalf("decoded %d frames, want %d", n, gateways*segments)
	}
	if fst.Admitted != gateways*segments || fst.Completed != gateways*segments || fst.Rejected != 0 {
		t.Fatalf("farm stats %+v", fst)
	}
}

func TestFarmDrainOnServerClose(t *testing.T) {
	// Segments already admitted when Server.Close begins must still be
	// decoded and answered: Close waits for the session, the session's bye
	// barrier waits for the farm.
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 8)
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 8, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}})
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := backhaul.NewConn(nc)
	if _, err := helloV2(conn, "drain"); err != nil {
		t.Fatal(err)
	}
	const segments = 3
	tiny := backhaul.Segment{Start: 0, SampleRate: fs, Samples: make([]complex128, 16)}
	for i := 0; i < segments; i++ {
		if _, err := conn.SendSegmentSeq(uint64(i), tiny); err != nil {
			t.Fatal(err)
		}
	}
	<-dispatched // all three admitted or decoding, none answered yet
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	close(gate)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	replies, err := readV2Replies(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if len(replies) != segments {
		t.Fatalf("shutdown lost segments: %d of %d answered", len(replies), segments)
	}
	for i, r := range replies {
		if r.seq != uint64(i) || r.busy {
			t.Fatalf("reply %d: %+v", i, r)
		}
	}
	if fst := svc.Farm().Snapshot(); fst.Completed != segments {
		t.Fatalf("farm stats %+v", fst)
	}
}
