package fleet

import (
	"fmt"
	"net"
	"sort"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/frontend"
	"repro/internal/gateway"
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

// runGateway drives one gateway.Run session against serve (the cloud side
// of a net.Pipe) and returns the decoded payloads, sorted.
func runGateway(t *testing.T, cfg gateway.Config, caps [][]complex128, serve func(rw net.Conn) error) []string {
	t.Helper()
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
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
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(payloads)
	return payloads
}

// TestFrontBackwardCompat is the satellite contract: a plain v2 gateway —
// no knowledge of the capacity hint, default window — decodes exactly the
// same payloads through a sharded front as against the seed single-shard
// server, for the same captures.
func TestFrontBackwardCompat(t *testing.T) {
	ts := testTechs()
	payloads := []string{"compat frame a", "compat frame b", "compat frame c"}
	caps := [][]complex128{
		capture(t, xbee.Default(), 11, []byte(payloads[0])),
		capture(t, zwave.Default(), 12, []byte(payloads[1])),
		capture(t, xbee.Default(), 13, []byte(payloads[2])),
	}
	cfg := gateway.Config{ID: "compat-gw", Techs: ts, Frontend: frontend.Ideal(fs)}

	// Seed path: one cloud.Service, no farm, strict v2 session.
	seedSvc := cloud.NewService(ts)
	seed := runGateway(t, cfg, caps, func(rw net.Conn) error { return seedSvc.ServeConn(rw) })

	// Sharded path: three shards behind the front.
	front, err := New(Config{Shards: 3, Workers: 2, QueueDepth: 16, Techs: ts})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	sharded := runGateway(t, cfg, caps, func(rw net.Conn) error { return front.HandleConn(rw) })

	if len(seed) != len(payloads) {
		t.Fatalf("seed server decoded %v, want %v", seed, payloads)
	}
	if fmt.Sprint(seed) != fmt.Sprint(sharded) {
		t.Fatalf("sharded front decoded %v, seed server decoded %v", sharded, seed)
	}
}

// TestFrontV1Gateway: the retired request/reply protocol is refused by the
// sharded front like by a bare service — the shard's negotiation error ends
// the session and nothing is decoded.
func TestFrontV1Gateway(t *testing.T) {
	front, err := New(Config{Shards: 2, Techs: testTechs()})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- front.HandleConn(b) }()

	conn := backhaul.NewConn(a)
	if err := conn.SendHello(backhaul.Hello{Version: 1, GatewayID: "legacy", SampleRate: fs}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("v1 hello served through the front")
	}
	for i, st := range front.Stats() {
		if st.Farm.Admitted != 0 {
			t.Fatalf("shard %d admitted %d jobs from a refused session", i, st.Farm.Admitted)
		}
	}
}

// TestFrontHelloAckCapacity checks the hello ack of a sharded plane: it
// advertises the plane's shard count and aggregate capacity, while Window
// stays the landing shard's own queue depth.
func TestFrontHelloAckCapacity(t *testing.T) {
	front, err := New(Config{Shards: 4, Workers: 1, QueueDepth: 8, Techs: testTechs()})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
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
	if ack.Shards != 4 {
		t.Fatalf("ack shards %d, want 4", ack.Shards)
	}
	if ack.Capacity != 4*8 {
		t.Fatalf("ack capacity %d, want 32", ack.Capacity)
	}
	if ack.Window != 8 {
		t.Fatalf("ack window %d, want the landing shard's queue depth 8", ack.Window)
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
