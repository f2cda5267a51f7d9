package cloud

import (
	"net"
	"testing"
	"time"

	"repro/internal/backhaul"
)

// waitGauge polls the gauge until it reads want or the deadline passes.
func waitGauge(t *testing.T, read func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge stuck at %d, want %d", read(), want)
}

// TestServerSessionsActiveGauge checks cloud_sessions_active_count tracks
// the live session count: up on accept, down when the session unwinds.
func TestServerSessionsActiveGauge(t *testing.T) {
	svc := NewService(techs())
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gauge := svc.Registry().Gauge("cloud_sessions_active_count")

	const n = 3
	conns := make([]*backhaul.Conn, 0, n)
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conn := backhaul.NewConn(nc)
		if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: "gauge", Epoch: uint64(i), SampleRate: fs}); err != nil {
			t.Fatal(err)
		}
		// The hello ack proves the server registered the session.
		if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgHelloAck {
			t.Fatalf("hello ack %v %v", typ, err)
		}
		conns = append(conns, conn)
	}
	waitGauge(t, gauge.Value, n)

	for i, conn := range conns {
		if err := conn.SendBye(); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgBye {
			t.Fatalf("bye ack %v %v", typ, err)
		}
		waitGauge(t, gauge.Value, int64(n-1-i))
	}
}
