package cloud

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func techs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

func makeSegment(t *testing.T, seed uint64) (backhaul.Segment, []byte) {
	t.Helper()
	gen := rng.New(seed)
	payload := []byte("cloud test frame")
	sig, err := xbee.Default().Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	samples := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, fs)
	return backhaul.Segment{Start: 1_000_000, SampleRate: fs, Samples: samples}, payload
}

// framesDecoded reads the service's cloud_frames_decoded_total counter.
func framesDecoded(svc *Service) int {
	return int(svc.Registry().Counter("cloud_frames_decoded_total").Value())
}

// shipOne is the client side of a one-segment exchange on an established
// session (see helloV2): ship seg under seq, read the frames report back.
func shipOne(conn *backhaul.Conn, seq uint64, seg backhaul.Segment) (backhaul.FramesReport, error) {
	if _, err := conn.SendSegmentSeq(seq, seg); err != nil {
		return backhaul.FramesReport{}, err
	}
	typ, data, err := conn.ReadMessage()
	if err != nil {
		return backhaul.FramesReport{}, err
	}
	if typ != backhaul.MsgFrames {
		return backhaul.FramesReport{}, fmt.Errorf("expected frames report, got message type %d", typ)
	}
	return backhaul.ParseFrames(data)
}

func TestDecodeSegment(t *testing.T) {
	svc := NewService(techs())
	seg, payload := makeSegment(t, 1)
	report := svc.DecodeSegment(seg)
	if report.SegmentStart != 1_000_000 {
		t.Fatalf("segment start %d", report.SegmentStart)
	}
	if len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("frames %+v", report.Frames)
	}
	f := report.Frames[0]
	if f.Offset < 1_000_000+7990 || f.Offset > 1_000_000+8010 {
		t.Fatalf("absolute offset %d", f.Offset)
	}
	if n := framesDecoded(svc); n != 1 {
		t.Fatalf("totals %d", n)
	}
}

func TestServeConnProtocol(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()

	conn := backhaul.NewConn(a)
	if ack, err := helloV2(conn, "t"); err != nil || ack.Version != backhaul.Version {
		t.Fatalf("hello ack %+v err %v", ack, err)
	}
	seg, payload := makeSegment(t, 2)
	report, err := shipOne(conn, 5, seg)
	if err != nil || report.Seq != 5 || len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("report %+v err %v", report, err)
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgBye {
		t.Fatalf("bye ack %v %v", typ, err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestServeConnRejectsBadVersion(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if err := conn.SendHello(backhaul.Hello{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestServeConnRejectsNonHelloFirst(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("non-hello first message accepted")
	}
}

func TestTCPServer(t *testing.T) {
	svc := NewService(techs())
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
	if _, err := helloV2(conn, "tcp"); err != nil {
		t.Fatal(err)
	}
	seg, payload := makeSegment(t, 3)
	report, err := shipOne(conn, 0, seg)
	if err != nil || len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("report %+v err %v", report, err)
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
}

func TestServeConnRejectsCorruptSegment(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if _, err := helloV2(conn, "t"); err != nil {
		t.Fatal(err)
	}
	// Garbage segment payload: a sequence number, then too few bytes to
	// carry a segment header.
	if err := conn.WriteMessage(backhaul.MsgSegmentSeq, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

// TestServeConnRejectsV1Hello: any hello version but the one the cloud
// speaks — the retired request/reply protocol, the pre-trace-context v2, a
// version from the future — is refused at negotiation: the session ends
// with an error and no ack is written.
func TestServeConnRejectsV1Hello(t *testing.T) {
	for _, version := range []int{1, 2, 99} {
		svc := NewService(techs())
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() {
			err := svc.ServeConn(b)
			b.Close() // a server closes a refused session; the client then reads EOF
			errCh <- err
		}()
		conn := backhaul.NewConn(a)
		if err := conn.SendHello(backhaul.Hello{Version: version, GatewayID: "legacy", SampleRate: fs}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d unsupported", version)
		if err := <-errCh; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d hello: err = %v, want a negotiation error", version, err)
		}
		if typ, _, err := conn.ReadMessage(); err == nil {
			t.Fatalf("refused v%d hello was answered with message type %d", version, typ)
		}
		a.Close()
	}
}

// TestServeConnRefusesHostileSampleRates: a peer-claimed sample rate the
// decoder bank cannot run at — or could only run at by allocating in
// proportion to the claim — ends that session with an error, whether it
// arrives in the hello or in a CRC-valid segment of an otherwise honest
// session. Nothing panics, and a well-formed 1 Msps session open on the same
// service throughout still gets its frames afterwards.
func TestServeConnRefusesHostileSampleRates(t *testing.T) {
	svc := NewService(techs())
	serve := func() (*backhaul.Conn, <-chan error, func()) {
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- svc.ServeConn(b) }()
		return backhaul.NewConn(a), errCh, func() { a.Close(); b.Close() }
	}
	bystander, bystanderErr, closeBystander := serve()
	defer closeBystander()
	if _, err := helloV2(bystander, "bystander"); err != nil {
		t.Fatal(err)
	}

	seg, payload := makeSegment(t, 40)
	for _, rate := range []float64{math.NaN(), 0, -1e6, 1, 1e3, 3e5, math.Inf(1), 1e12} {
		// In the hello. JSON cannot carry NaN or Inf, so for those the send
		// itself fails and only the segment route below exists.
		conn, errCh, done := serve()
		if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: "hostile", SampleRate: rate}); err == nil {
			if err := <-errCh; err == nil || !strings.Contains(err.Error(), "sample rate") {
				t.Fatalf("hello at rate %v: err = %v, want a sample-rate refusal", rate, err)
			}
		}
		done()

		// In a segment, after an honest hello.
		conn, errCh, done = serve()
		if _, err := helloV2(conn, "hostile"); err != nil {
			t.Fatal(err)
		}
		bad := seg
		bad.SampleRate = rate
		if _, err := conn.SendSegmentSeq(0, bad); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err == nil || !strings.Contains(err.Error(), "bad segment") {
			t.Fatalf("segment at rate %v: err = %v, want a bad-segment error", rate, err)
		}
		done()
	}
	if n := framesDecoded(svc); n != 0 {
		t.Fatalf("hostile segments decoded into %d frames", n)
	}

	report, err := shipOne(bystander, 0, seg)
	if err != nil || len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("bystander session after the attacks: report %+v err %v", report, err)
	}
	if err := bystander.SendBye(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := bystander.ReadMessage(); err != nil || typ != backhaul.MsgBye {
		t.Fatalf("bye ack %v %v", typ, err)
	}
	if err := <-bystanderErr; err != nil {
		t.Fatal(err)
	}
}

// TestServeConnRejectsRetiredSegmentType: message type 2 (the unsequenced
// v1 segment) stays reserved and ends the session like any unexpected type.
func TestServeConnRejectsRetiredSegmentType(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if _, err := helloV2(conn, "t"); err != nil {
		t.Fatal(err)
	}
	payload, err := backhaul.DefaultCodec.Encode(backhaul.Segment{Start: 0, SampleRate: fs, Samples: make([]complex128, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(backhaul.MsgType(2), payload); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "unexpected message type 2") {
		t.Fatalf("type-2 message: err = %v, want unexpected-type error", err)
	}
	if n := framesDecoded(svc); n != 0 {
		t.Fatalf("retired segment type was decoded (%d frames)", n)
	}
}

func TestDecodeSegmentEmptyNoise(t *testing.T) {
	svc := NewService(techs())
	gen := rng.New(44)
	samples := make([]complex128, 50000)
	for i := range samples {
		samples[i] = gen.Complex()
	}
	report := svc.DecodeSegment(backhaul.Segment{Start: 0, SampleRate: fs, Samples: samples})
	if len(report.Frames) != 0 {
		t.Fatalf("noise decoded into %d frames", len(report.Frames))
	}
}

func TestTCPServerConcurrentGateways(t *testing.T) {
	// Several gateways ship segments simultaneously; the service must
	// handle the sessions concurrently and account all frames.
	svc := NewService(techs())
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const gateways = 3
	errCh := make(chan error, gateways)
	for g := 0; g < gateways; g++ {
		go func(g int) {
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer nc.Close()
			conn := backhaul.NewConn(nc)
			if _, err := helloV2(conn, "gw"); err != nil {
				errCh <- err
				return
			}
			seg, payload := makeSegment(t, uint64(10+g))
			report, err := shipOne(conn, 0, seg)
			if err != nil {
				errCh <- err
				return
			}
			if len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
				errCh <- fmt.Errorf("gateway %d: report %+v", g, report)
				return
			}
			errCh <- conn.SendBye()
		}(g)
	}
	for g := 0; g < gateways; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if n := framesDecoded(svc); n != gateways {
		t.Fatalf("decoded %d frames across %d gateways", n, gateways)
	}
}
