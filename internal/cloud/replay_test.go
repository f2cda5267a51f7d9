package cloud

import (
	"net"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/farm"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestReplayedSegmentNotDoubleCounted drives the real decode path through
// a seeded mid-reply connection kill: session 1 ships a segment, the cloud
// decodes and caches it, and the fault injector cuts the connection one
// byte into the reply — exactly the window where a reconnecting gateway
// has an unacked segment to replay. Session 2 (same gateway, same epoch)
// replays it. The replay must be answered from the dedup cache: one
// decode on cloud_segments_decoded_total, one dedup on
// cloud_segments_deduped_total, and exactly one "decode" trace span —
// the replay's trace carries "dedup_hit" instead.
func TestReplayedSegmentNotDoubleCounted(t *testing.T) {
	svc := NewService(techs())
	tracer := obs.NewTracer()
	store := obs.NewTraceStore(nil)
	tracer.SetSink(store.Ingest)
	svc.UseObs(svc.Registry(), tracer)
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 4})
	defer svc.Close()

	// Seeded segment: the replayed bytes are identical to the originals,
	// as a spool replay's are.
	gen := rng.New(99)
	samples := make([]complex128, 256)
	for i := range samples {
		samples[i] = gen.Complex()
	}
	seg := backhaul.Segment{Start: 8400, SampleRate: fs, Samples: samples}

	// Session 1: clean handshake, then the fault plan takes over the read
	// side — the reply's first byte arrives and the connection dies. The
	// segment itself flows to the cloud intact (writes are untouched), so
	// the decode and the cache put have happened by the time the reply hits
	// the wire.
	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	helloEpoch(t, conn, "gw-replay", 7)
	fc := faults.NewConn(a, faults.Plan{Events: []faults.Event{
		{Dir: faults.DirRead, Op: faults.OpClose, Offset: 1},
	}})
	fconn := backhaul.NewConn(fc)
	if _, err := fconn.SendSegmentSeq(0, seg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fconn.ReadMessage(); err == nil {
		t.Fatal("reply survived the injected close")
	}
	// The session dies with the connection; its error is the fault, not
	// the contract under test.
	<-done

	// The decode span ends in the farm worker's goroutine after the
	// failed reply write, which ServeConn's return does not join — wait
	// for it to land before reading the tracer or reconnecting.
	deadline := time.Now().Add(5 * time.Second)
	for countStages(store, "decode") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode span never landed in the tracer")
		}
		time.Sleep(time.Millisecond)
	}

	// Session 2: the reconnect. A fresh sequence number, the same segment —
	// the replay must be answered from cache, not decoded again.
	a2, b2 := net.Pipe()
	done2 := make(chan error, 1)
	go func() { done2 <- svc.ServeConn(b2) }()
	conn2 := backhaul.NewConn(a2)
	helloEpoch(t, conn2, "gw-replay", 7)
	if _, err := conn2.SendSegmentSeq(1, seg); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn2.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != backhaul.MsgFrames {
		t.Fatalf("replay reply: unexpected message type %d", typ)
	}
	report, err := backhaul.ParseFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	if report.SegmentStart != seg.Start {
		t.Fatalf("replay reply for segment @%d, want @%d", report.SegmentStart, seg.Start)
	}
	if err := conn2.SendBye(); err != nil {
		t.Fatal(err)
	}
	if rest, err := readV2Replies(conn2); err != nil || len(rest) != 0 {
		t.Fatalf("after bye: %d extra replies, err %v", len(rest), err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}

	// The ledger: one decode, one dedup answer, no double count.
	if n := svc.Registry().Counter("cloud_segments_decoded_total").Value(); n != 1 {
		t.Fatalf("cloud_segments_decoded_total = %d, want 1 (replay double-counted)", n)
	}
	if n := svc.Registry().Counter("cloud_segments_deduped_total").Value(); n != 1 {
		t.Fatalf("cloud_segments_deduped_total = %d, want 1", n)
	}

	// The traces agree: one decode span across both sessions, and the
	// replay's trace is marked as a cache answer.
	if n := countStages(store, "decode"); n != 1 {
		t.Fatalf("traces carry %d decode stages, want 1 (replay re-decoded)", n)
	}
	if n := countStages(store, "dedup_hit"); n != 1 {
		t.Fatalf("traces carry %d dedup_hit stages, want 1", n)
	}
}

// countStages counts ended stages of the given name across the store's
// retained spans.
func countStages(store *obs.TraceStore, name string) int {
	n := 0
	for _, tr := range store.Trees() {
		for _, sp := range tr.Spans {
			for _, st := range sp.Stages {
				if st.Name == name {
					n++
				}
			}
		}
	}
	return n
}
