package fleet

import (
	"fmt"
	"io"
	"net"
	"sort"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func testTechs() []phy.Technology {
	return []phy.Technology{xbee.Default(), zwave.Default()}
}

// capture builds one clean modulated packet in noise, gateway-side.
func capture(t *testing.T, tech phy.Technology, seed uint64, payload []byte) []complex128 {
	t.Helper()
	sig, err := tech.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(seed)
	return channel.Mix(len(sig)+100000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 15}}, gen, fs)
}

// runSession drives one gateway.Run session against serve (the cloud side
// of a net.Pipe) and returns the decoded payloads, sorted, plus the shipping
// window the gateway derived from the hello ack (scaleWindow's result, as
// journaled on gateway_session_establish). Safe to call from any goroutine:
// failures come back as an error.
func runSession(cfg gateway.Config, caps [][]complex128, serve func(rw io.ReadWriter) error) ([]string, int64, error) {
	cfg.Journal = obs.NewJournal(0)
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	captures := make(chan []complex128, len(caps))
	for _, c := range caps {
		captures <- c
	}
	close(captures)
	var payloads []string
	errCh := make(chan error, 2)
	go func() { errCh <- serve(b) }()
	go func() {
		errCh <- g.Run(a, captures, func(r backhaul.FramesReport) {
			for _, f := range r.Frames {
				payloads = append(payloads, string(f.Payload))
			}
		})
	}()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil && first == nil {
			// Unblock the other side before waiting for it.
			first = err
			a.Close()
			b.Close()
		}
	}
	if first != nil {
		return nil, 0, first
	}
	sort.Strings(payloads)
	window := int64(-1)
	for _, e := range cfg.Journal.Recent() {
		if e.Name == "gateway_session_establish" {
			window = e.Value
		}
	}
	return payloads, window, nil
}

// runGateway is runSession on the test goroutine: any session error fails
// the test.
func runGateway(t *testing.T, cfg gateway.Config, caps [][]complex128, serve func(rw io.ReadWriter) error) ([]string, int64) {
	t.Helper()
	payloads, window, err := runSession(cfg, caps, serve)
	if err != nil {
		t.Fatal(err)
	}
	return payloads, window
}

// TestFrontBackwardCompat is the collapse contract: a plain gateway — no
// knowledge of the capacity hint, default window — decodes exactly the same
// payloads through a front of any shard count as against a bare inline
// cloud.Service, for the same captures; and from the ack of the one-shard
// plane that replaced the unsharded server (Shards: 1, Capacity ==
// QueueDepth, see TestFrontHelloAckCapacity) the gateway sizes its window
// exactly as it did from an unsharded farm-backed service's ack.
func TestFrontBackwardCompat(t *testing.T) {
	ts := testTechs()
	payloads := []string{"compat frame a", "compat frame b", "compat frame c"}
	caps := [][]complex128{
		capture(t, xbee.Default(), 11, []byte(payloads[0])),
		capture(t, zwave.Default(), 12, []byte(payloads[1])),
		capture(t, xbee.Default(), 13, []byte(payloads[2])),
	}
	cfg := gateway.Config{ID: "compat-gw", Techs: ts, Frontend: frontend.Ideal(fs)}
	const workers, queue = 2, 6 // queue below gateway.DefaultWindow, so the ack's bound decides the window

	// Reference: one cloud.Service decoding inline, no farm.
	inline, _ := runGateway(t, cfg, caps, cloud.NewService(ts).ServeConn)
	if len(inline) != len(payloads) {
		t.Fatalf("inline service decoded %v, want %v", inline, payloads)
	}
	// Reference window: the unsharded farm-backed service's ack.
	unsharded := cloud.NewService(ts)
	unsharded.StartFarm(farm.Config{Workers: workers, QueueDepth: queue})
	defer unsharded.Close()
	_, wantWindow := runGateway(t, cfg, caps, unsharded.ServeConn)
	if wantWindow != queue {
		t.Fatalf("unsharded ack yielded window %d, want the queue depth %d", wantWindow, queue)
	}

	for _, shards := range []int{1, 4} {
		front, err := New(Config{Shards: shards, Workers: workers, QueueDepth: queue, Techs: ts})
		if err != nil {
			t.Fatal(err)
		}
		got, window := runGateway(t, cfg, caps, front.HandleConn)
		front.Close()
		if fmt.Sprint(got) != fmt.Sprint(inline) {
			t.Fatalf("%d-shard front decoded %v, inline service decoded %v", shards, got, inline)
		}
		if window != wantWindow {
			t.Fatalf("%d-shard ack yielded window %d, unsharded ack %d", shards, window, wantWindow)
		}
	}
}

// TestFrontV1Gateway: any hello version but the current one is refused by
// the front like by a bare service — the shard's negotiation error ends the
// session and nothing is decoded.
func TestFrontV1Gateway(t *testing.T) {
	front, err := New(Config{Shards: 2, Techs: testTechs()})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	for _, version := range []int{1, 2, 99} {
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- front.HandleConn(b) }()

		conn := backhaul.NewConn(a)
		if err := conn.SendHello(backhaul.Hello{Version: version, GatewayID: "legacy", SampleRate: fs}); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err == nil {
			t.Fatalf("v%d hello served through the front", version)
		}
		a.Close()
		b.Close()
	}
	for i, st := range front.Stats() {
		if st.Farm.Admitted != 0 {
			t.Fatalf("shard %d admitted %d jobs from a refused session", i, st.Farm.Admitted)
		}
	}
}

// TestFrontHelloAckCapacity checks the hello ack of a plane: it advertises
// the plane's shard count and aggregate capacity (for the default one-shard
// plane, the shard's own queue depth), while Window stays the landing
// shard's queue depth.
func TestFrontHelloAckCapacity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		front, err := New(Config{Shards: shards, Workers: 1, QueueDepth: 8, Techs: testTechs()})
		if err != nil {
			t.Fatal(err)
		}
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- front.HandleConn(b) }()

		conn := backhaul.NewConn(a)
		if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: "cap", Epoch: 7, SampleRate: fs}); err != nil {
			t.Fatal(err)
		}
		typ, data, err := conn.ReadMessage()
		if err != nil || typ != backhaul.MsgHelloAck {
			t.Fatalf("hello ack %v %v", typ, err)
		}
		ack, err := backhaul.ParseHelloAck(data)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Shards != shards || ack.Capacity != shards*8 {
			t.Fatalf("%d-shard ack advertises %d shards, capacity %d, want %d and %d", shards, ack.Shards, ack.Capacity, shards, shards*8)
		}
		if ack.Window != 8 || ack.Workers != 1 {
			t.Fatalf("ack window %d workers %d, want the landing shard's queue depth 8 and 1 worker", ack.Window, ack.Workers)
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
		a.Close()
		b.Close()
		front.Close()
	}
}

// TestFrontRoutingMetrics checks that sessions land on the ring-predicted
// shard and that the per-shard and plane counters account every session.
func TestFrontRoutingMetrics(t *testing.T) {
	front, err := New(Config{Shards: 3, Techs: testTechs()})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	const sessions = 12
	for i := 0; i < sessions; i++ {
		gw := fmt.Sprintf("route-gw-%d", i)
		epoch := uint64(100 + i)
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- front.HandleConn(b) }()
		conn := backhaul.NewConn(a)
		if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: gw, Epoch: epoch, SampleRate: fs}); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgHelloAck {
			t.Fatalf("hello ack %v %v", typ, err)
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
		a.Close()
		b.Close()
	}

	stats := front.Stats()
	var total uint64
	want := make([]uint64, front.Shards())
	for i := 0; i < sessions; i++ {
		want[front.Ring().Lookup(fmt.Sprintf("route-gw-%d", i), uint64(100+i))]++
	}
	for i, st := range stats {
		if st.Sessions != want[i] {
			t.Fatalf("shard %d served %d sessions, ring predicts %d (%+v)", i, st.Sessions, want[i], stats)
		}
		if st.Active != 0 {
			t.Fatalf("shard %d still has %d active sessions", i, st.Active)
		}
		total += st.Sessions
	}
	if total != sessions {
		t.Fatalf("shards account %d sessions, want %d", total, sessions)
	}
	reg := front.Registry()
	if got := reg.Counter("cloud_fleet_sessions_total").Value(); got != sessions {
		t.Fatalf("cloud_fleet_sessions_total %d, want %d", got, sessions)
	}
	if got := reg.Gauge("cloud_fleet_shards_count").Value(); got != 3 {
		t.Fatalf("cloud_fleet_shards_count %d, want 3", got)
	}
}
