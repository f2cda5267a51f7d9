package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The plane tests: does the sharded plane scale, does a real decode stay
// shared-nothing, and is the fleet rollup exact. A decodeProbe hooked in
// through Config.WrapDecode watches every shard's decodes.

// segKey fingerprints one shipped segment. Start and length come straight
// from the segment; the sample hash disambiguates different gateways'
// segments that happen to share a timeline position.
type segKey struct {
	start   int64
	samples int
	hash    uint64
}

func keyOf(seg backhaul.Segment) segKey {
	// FNV-1a over the first 64 samples' real parts, quantized; enough to
	// tell any two distinct noise floors apart.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	n := min(len(seg.Samples), 64)
	for i := 0; i < n; i++ {
		v := uint64(int64(real(seg.Samples[i]) * 1e9))
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= prime64
		}
	}
	return segKey{start: seg.Start, samples: len(seg.Samples), hash: h}
}

// decodeProbe wraps every shard's decode function: it counts decodes per
// shard, fingerprints each segment to catch one segment decoded twice (on
// any shard — the shared-nothing invariant), and records each shard's busy
// window (first decode start to last decode end).
type decodeProbe struct {
	// decode, when set, replaces the shards' real decoder.
	decode farm.DecodeFunc

	mu         sync.Mutex
	seen       map[segKey]int
	perShard   []uint64
	duplicates uint64
	first      []int64
	last       []int64
}

func newProbe(shards int, decode farm.DecodeFunc) *decodeProbe {
	return &decodeProbe{
		decode:   decode,
		seen:     make(map[segKey]int),
		perShard: make([]uint64, shards),
		first:    make([]int64, shards),
		last:     make([]int64, shards),
	}
}

func (p *decodeProbe) wrap(shard int, next farm.DecodeFunc) farm.DecodeFunc {
	if p.decode != nil {
		next = p.decode
	}
	return func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		start := time.Now().UnixNano()
		rep, st, err := next(ctx, seg)
		end := time.Now().UnixNano()
		key := keyOf(seg)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.perShard[shard]++
		p.seen[key]++
		if p.seen[key] > 1 {
			p.duplicates++
		}
		if p.first[shard] == 0 || start < p.first[shard] {
			p.first[shard] = start
		}
		if end > p.last[shard] {
			p.last[shard] = end
		}
		return rep, st, err
	}
}

// decoded is the decode count across every shard.
func (p *decodeProbe) decoded() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, c := range p.perShard {
		n += c
	}
	return n
}

// dups is the count of decodes of an already-decoded segment.
func (p *decodeProbe) dups() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.duplicates
}

// capacity is the plane's aggregate decode capacity: the sum of per-shard
// throughputs, each over that shard's own busy window, so one shard's
// stragglers do not dilute another's measured rate.
func (p *decodeProbe) capacity() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c float64
	for i, n := range p.perShard {
		if w := float64(p.last[i]-p.first[i]) / 1e9; w > 0 {
			c += float64(n) / w
		}
	}
	return c
}

// dialRaw opens a raw backhaul session: dial, hello, hello ack.
func dialRaw(addr, id string, epoch uint64) (*backhaul.Conn, net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn := backhaul.NewConn(nc)
	if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: id, Epoch: epoch, SampleRate: fs}); err != nil {
		nc.Close()
		return nil, nil, err
	}
	if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgHelloAck {
		nc.Close()
		return nil, nil, fmt.Errorf("%s: hello ack %v %v", id, typ, err)
	}
	return conn, nc, nil
}

// shipRaw sends every segment back to back on an open session, then bye,
// and reads every reply up to the bye ack. It returns how many segments
// were answered with frames and how many were busy-rejected.
func shipRaw(conn *backhaul.Conn, segs []backhaul.Segment) (answered, busy int, err error) {
	for i, seg := range segs {
		if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, uint64(i), seg); err != nil {
			return 0, 0, err
		}
	}
	if err := conn.SendBye(); err != nil {
		return 0, 0, err
	}
	for {
		typ, _, err := conn.ReadMessage()
		if err != nil {
			return answered, busy, err
		}
		switch typ {
		case backhaul.MsgFrames:
			answered++
		case backhaul.MsgBusy:
			busy++
		case backhaul.MsgBye:
			return answered, busy, nil
		default:
			return answered, busy, fmt.Errorf("unexpected message type %d", typ)
		}
	}
}

// checkShards asserts the per-shard invariants every plane test shares: no
// busy rejects, every admitted segment completed.
func checkShards(t *testing.T, stats []ShardStats) {
	t.Helper()
	for _, st := range stats {
		if st.Farm.Rejected != 0 {
			t.Fatalf("shard %d: admission queue collapsed (%d rejects)", st.Shard, st.Farm.Rejected)
		}
		if st.Farm.Admitted != st.Farm.Completed {
			t.Fatalf("shard %d admitted %d but completed %d", st.Shard, st.Farm.Admitted, st.Farm.Completed)
		}
	}
}

// TestFleetThroughputScalesWithShards is the capacity soak: the same 80
// sessions, one segment each, through a 1-shard and a 4-shard plane with a
// fixed 200 ms synthetic decode. Raw backhaul clients put every segment on
// the wire at once, so detection speed cannot blur the number: decode
// capacity must scale at least 3x, with zero duplicates and no
// admission-queue collapse.
func TestFleetThroughputScalesWithShards(t *testing.T) {
	const sessions = 80
	gen := rng.New(7)
	segs := make([]backhaul.Segment, sessions)
	for i := range segs {
		lane := gen.Split(uint64(i) + 1)
		samples := make([]complex128, 256)
		for j := range samples {
			samples[j] = lane.Complex()
		}
		segs[i] = backhaul.Segment{Start: int64(i) << 14, SampleRate: fs, Samples: samples}
	}
	burn := func(_ context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		time.Sleep(200 * time.Millisecond)
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}

	run := func(shards int) *decodeProbe {
		probe := newProbe(shards, burn)
		front, err := New(Config{Shards: shards, Workers: 2, QueueDepth: 256, Techs: testTechs(), WrapDecode: probe.wrap})
		if err != nil {
			t.Fatal(err)
		}
		defer front.Close()
		srv := front.NewServer()
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr().String()
		// Every session is up before any segment is sent, so the segments
		// reach the plane at once and each shard's busy window is decode
		// time, not arrival spread.
		conns := make([]*backhaul.Conn, sessions)
		for i := range conns {
			conn, nc, err := dialRaw(addr, fmt.Sprintf("simgw-%04d", i), uint64(i)+1)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			conns[i] = conn
		}
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		busy := make([]int, sessions)
		for i := range segs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var answered int
				answered, busy[i], errs[i] = shipRaw(conns[i], segs[i:i+1])
				if errs[i] == nil && answered+busy[i] != 1 {
					errs[i] = fmt.Errorf("session %d: %d replies to one segment", i, answered+busy[i])
				}
			}(i)
		}
		wg.Wait()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("shards=%d: %v", shards, errs[i])
			}
			if busy[i] != 0 {
				t.Fatalf("shards=%d: session %d was busy-rejected", shards, i)
			}
		}
		stats := front.Stats()
		checkShards(t, stats)
		for _, st := range stats {
			t.Logf("  shard %d: sessions=%d completed=%d", st.Shard, st.Sessions, st.Farm.Completed)
		}
		t.Logf("shards=%d: decoded=%d capacity=%.1f/s", shards, probe.decoded(), probe.capacity())
		if n := probe.dups(); n != 0 {
			t.Fatalf("shards=%d: %d duplicate decodes", shards, n)
		}
		return probe
	}
	one := run(1)
	four := run(4)
	if one.decoded() != sessions || four.decoded() != sessions {
		t.Fatalf("same segments decoded %d times on 1 shard and %d on 4, want %d each", one.decoded(), four.decoded(), sessions)
	}
	if ratio := four.capacity() / one.capacity(); ratio < 3 {
		t.Fatalf("decode capacity scaled %.2fx from 1 to 4 shards, want >= 3x (1: %.1f/s, 4: %.1f/s)",
			ratio, one.capacity(), four.capacity())
	}
}

// runRealFleet drives one real gateway.Run session per capture
// concurrently through front, fails the test on any session error and
// returns the frame count the gateways received.
func runRealFleet(t *testing.T, front *Front, caps [][]complex128) int {
	t.Helper()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		frames int
	)
	errs := make([]error, len(caps))
	for i := range caps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := gateway.Config{ID: fmt.Sprintf("realgw-%d", i), Techs: testTechs(), Frontend: frontend.Ideal(fs)}
			payloads, _, err := runSession(cfg, caps[i:i+1], front.HandleConn)
			errs[i] = err
			mu.Lock()
			frames += len(payloads)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	return frames
}

// fleetCaptures renders n one-packet captures, alternating XBee and Z-Wave.
func fleetCaptures(t *testing.T, n int) [][]complex128 {
	t.Helper()
	caps := make([][]complex128, n)
	for i := range caps {
		tech := testTechs()[i%2]
		caps[i] = capture(t, tech, uint64(42+i), []byte(fmt.Sprintf("fleet frame %d", i)))
	}
	return caps
}

// TestSmallFleetRealDecode is the correctness soak: six concurrent real
// gateways decoding for real through a 2-shard plane. Every shipped
// segment is decoded exactly once, on one shard, with no queue pressure,
// and the plane winds down with no session left active.
func TestSmallFleetRealDecode(t *testing.T) {
	const sessions = 6
	caps := fleetCaptures(t, sessions)
	probe := newProbe(2, nil)
	front, err := New(Config{Shards: 2, Workers: 2, QueueDepth: 256, Techs: testTechs(), WrapDecode: probe.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	frames := runRealFleet(t, front, caps)

	t.Logf("decoded %d segments, %d frames came back", probe.decoded(), frames)
	if probe.decoded() == 0 {
		t.Fatal("no segments decoded")
	}
	if frames == 0 {
		t.Fatal("no frames came back")
	}
	if n := probe.dups(); n != 0 {
		t.Fatalf("%d duplicate decodes across shards", n)
	}
	stats := front.Stats()
	checkShards(t, stats)
	var routed uint64
	for _, st := range stats {
		routed += st.Sessions
		if st.Active != 0 {
			t.Fatalf("shard %d still has %d active sessions after every gateway exited", st.Shard, st.Active)
		}
	}
	if routed != sessions {
		t.Fatalf("shards served %d sessions, want %d", routed, sessions)
	}
}

// TestRunRollupMatchesPerShardRegistries is the rollup-correctness check:
// after six real sessions drain through a 3-shard plane, the fleet-wide
// aggregation over the plane's targets must agree exactly with the
// per-shard farm snapshots — same counters, summed across the same
// registries, through a different path — and the journal and health
// registry must tell the shards' lifecycle.
func TestRunRollupMatchesPerShardRegistries(t *testing.T) {
	const shards = 3
	j := obs.NewJournal(obs.DefaultJournalRing)
	h := obs.NewHealth()
	probe := newProbe(shards, nil)
	front, err := New(Config{Shards: shards, Workers: 2, QueueDepth: 256, Techs: testTechs(), WrapDecode: probe.wrap, Journal: j, Health: h})
	if err != nil {
		t.Fatal(err)
	}
	runRealFleet(t, front, fleetCaptures(t, 6))

	stats := front.Stats()
	// Freeze the rollup while the registries still hold the run's final
	// numbers, then drain.
	rollup := obs.NewFleet(front.Targets()...).Collect()
	front.Close()

	if want := shards + 1; len(rollup.Targets) != want {
		t.Fatalf("rollup targets = %v, want %d (front + shards)", rollup.Targets, want)
	}
	if len(rollup.Errors) != 0 {
		t.Fatalf("rollup scrape errors: %v", rollup.Errors)
	}
	for _, c := range []struct {
		series string
		shard  func(ShardStats) uint64
	}{
		{"farm_jobs_admitted_total", func(s ShardStats) uint64 { return s.Farm.Admitted }},
		{"farm_jobs_completed_total", func(s ShardStats) uint64 { return s.Farm.Completed }},
		{"farm_jobs_rejected_total", func(s ShardStats) uint64 { return s.Farm.Rejected }},
	} {
		agg, ok := rollup.Counters[c.series]
		if !ok {
			t.Fatalf("rollup is missing %s", c.series)
		}
		var sum uint64
		for _, st := range stats {
			sum += c.shard(st)
			name := fmt.Sprintf("shard%d", st.Shard)
			if agg.PerTarget[name] != c.shard(st) {
				t.Errorf("%s per-target %s = %d, want %d", c.series, name, agg.PerTarget[name], c.shard(st))
			}
		}
		if agg.Total != sum {
			t.Errorf("%s rollup total = %d, want exact per-shard sum %d", c.series, agg.Total, sum)
		}
	}
	// The merged queue-wait histogram covers every dispatch across shards.
	qw, ok := rollup.Histograms["farm_queue_wait_samples"]
	if !ok {
		t.Fatal("rollup is missing farm_queue_wait_samples")
	}
	if qw.Count != probe.decoded() {
		t.Errorf("merged queue-wait count = %d, want %d (one dispatch per decode)", qw.Count, probe.decoded())
	}

	// Shard lifecycle events: one coalesced attach burst, one detach burst.
	var attach, detach uint64
	for _, e := range j.Recent() {
		switch e.Name {
		case "fleet_shard_attach":
			attach += e.Count
		case "fleet_shard_detach":
			detach += e.Count
		}
	}
	if attach != shards || detach != shards {
		t.Errorf("journal saw %d attaches / %d detaches, want %d each", attach, detach, shards)
	}
	// After Close every shard is detached: liveness must report it.
	if h.Liveness().Healthy {
		t.Error("liveness still healthy after the plane closed")
	}
}
