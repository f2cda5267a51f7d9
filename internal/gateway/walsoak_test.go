package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/resilience"
)

const (
	soakSegments = 8 // admitted before the kill
	soakForward  = 3 // segments the relay lets through before killing
	soakFresh    = 2 // new segments admitted after the restart
)

// soakRelay is a deterministic man-in-the-middle between the gateway and
// the cloud: it forwards the hello, the first soakForward sequenced
// segments (swallowing later ones while still consuming them, so the
// gateway keeps filling its window), the hello ack and the first
// soakForward frames reports — then tears every pipe end down. Because
// backhaul connections are unbuffered and net.Pipe is synchronous, a
// forwarded message has always been fully consumed by its receiver before
// the relay moves on, which pins the kill point exactly: the gateway has
// parsed soakForward acks, the cloud has decoded soakForward segments, and
// nothing else got through.
func soakRelay(t *testing.T, svc *cloud.Service) io.ReadWriteCloser {
	t.Helper()
	gw, gwPeer := net.Pipe()
	cl, clPeer := net.Pipe()
	go func() {
		//lint:ignore errdrop the relay kills this session by design; the soak's counters are the contract
		_ = svc.ServeConn(clPeer)
	}()
	up := backhaul.NewConn(gwPeer) // gateway -> relay
	down := backhaul.NewConn(cl)   // relay -> cloud (and back)
	closeAll := func() {
		gwPeer.Close()
		cl.Close()
	}
	// Upstream: hello through, first soakForward segments through, the rest
	// swallowed (still read, so the gateway's writes keep completing).
	go func() {
		defer closeAll()
		forwarded := 0
		for {
			typ, payload, err := up.ReadMessage()
			if err != nil {
				return
			}
			if typ == backhaul.MsgSegmentSeq {
				if forwarded >= soakForward {
					continue
				}
				forwarded++
			}
			if err := down.WriteMessage(typ, payload); err != nil {
				return
			}
		}
	}()
	// Downstream: hello ack through, then exactly soakForward frames
	// reports; the teardown after the last one is the simulated SIGKILL's
	// trigger point.
	go func() {
		defer closeAll()
		reports := 0
		for {
			typ, payload, err := down.ReadMessage()
			if err != nil {
				return
			}
			if err := up.WriteMessage(typ, payload); err != nil {
				return
			}
			if typ == backhaul.MsgFrames {
				reports++
				if reports >= soakForward {
					return
				}
			}
		}
	}()
	return gw
}

// soakCounters is the machine-readable ledger the soak asserts on; when
// WAL_SOAK_REPORT names a file the ledger is written there so CI can keep
// it as an artifact.
type soakCounters struct {
	Phase1Appended  uint64 `json:"phase1_wal_appended"`
	Phase1Acked     uint64 `json:"phase1_wal_acked"`
	Phase1Decoded   uint64 `json:"phase1_cloud_decoded"`
	Phase2Replayed  uint64 `json:"phase2_wal_replayed"`
	Phase2Truncated uint64 `json:"phase2_wal_truncated"`
	Phase2Appended  uint64 `json:"phase2_wal_appended"`
	Phase2Acked     uint64 `json:"phase2_wal_acked"`
	Phase2Compacted uint64 `json:"phase2_wal_compacted"`
	CloudDecoded    uint64 `json:"cloud_decoded_total"`
	CloudDeduped    uint64 `json:"cloud_deduped_total"`
	CloudSuperseded uint64 `json:"cloud_superseded_total"`
	DistinctPackets int    `json:"distinct_packets"`
	TraceStitched   int    `json:"trace_stitched"`
	TraceWALReplays int    `json:"trace_wal_replays"`
	TraceOrphans    int    `json:"trace_orphans"`
}

// TestWALRestartSoak SIGKILL-simulates a durably-configured gateway mid
// window and restarts it over the same WAL directory: phase one admits
// soakSegments segments, gets exactly soakForward of them decoded and
// acked through a man-in-the-middle relay, and then dies with the rest of
// the window unacknowledged; phase two reopens the WAL under a fresh
// epoch, replays the persisted window ahead of new traffic, and must end
// with every admitted segment decoded exactly once across the restart —
// asserted with exact counters on both sides.
func TestWALRestartSoak(t *testing.T) {
	ts := resTechs()
	walDir := t.TempDir()
	// One store assembles spans across the kill: each phase's gateway gets
	// its own tracer site (as two incarnations of a process would), the
	// cloud keeps one tracer across both, and the WAL carries each
	// segment's trace ID over the restart.
	store := obs.NewTraceStore(nil)
	cloudTracer := obs.NewTracer()
	cloudTracer.SetSite("cloud")
	cloudTracer.SetSink(store.Ingest)
	phaseTracer := func(site string) *obs.Tracer {
		tr := obs.NewTracer()
		tr.SetSite(site)
		tr.SetSink(store.Ingest)
		return tr
	}
	svc := cloud.NewService(ts)
	svc.UseObs(nil, cloudTracer)
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()
	cloudCounter := func(name string) uint64 { return svc.Registry().Counter(name).Value() }

	allPayloads := make([]string, 0, soakSegments+soakFresh)

	// ---- Phase 1: admit, ship three, die mid-window. ----
	j1 := obs.NewJournal(obs.DefaultJournalRing)
	g1, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4, Journal: j1, Tracer: phaseTracer("gateway-p1")})
	if err != nil {
		t.Fatal(err)
	}
	captures1 := make(chan []complex128, soakSegments)
	for i := 0; i < soakSegments; i++ {
		payload := fmt.Sprintf("soak packet %d", i)
		allPayloads = append(allPayloads, payload)
		captures1 <- techCapture(t, ts[i%len(ts)], uint64(700+i), []byte(payload))
	}
	close(captures1)

	walAppended := func(g *Gateway) uint64 { return counter(t, g, "wal_records_appended_total") }
	dials := 0
	dial1 := func() (io.ReadWriteCloser, error) {
		dials++
		if dials > 1 {
			// The second dial is the kill switch: the process "dies" here,
			// abandoning the WAL exactly as it sits on disk.
			return nil, resilience.ErrKilled
		}
		// Let the feeder journal every admitted segment before the session
		// ships anything, so the pre-kill WAL contents are exact.
		deadline := time.Now().Add(30 * time.Second)
		for walAppended(g1) < soakSegments {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("wal never reached %d appends", soakSegments)
			}
			time.Sleep(time.Millisecond)
		}
		return soakRelay(t, svc), nil
	}

	var mu sync.Mutex
	var reports1 []backhaul.FramesReport
	err = g1.RunResilient(Resilient{
		Dial:          dial1,
		Retry:         resiliencePolicy(time.Millisecond),
		SpoolCapacity: 16,
		Epoch:         7,
		WALDir:        walDir,
	}, captures1, func(r backhaul.FramesReport) {
		mu.Lock()
		reports1 = append(reports1, r)
		mu.Unlock()
	})
	if !errors.Is(err, resilience.ErrKilled) {
		t.Fatalf("phase 1 returned %v, want ErrKilled", err)
	}

	var c soakCounters
	c.Phase1Appended = walAppended(g1)
	c.Phase1Acked = counter(t, g1, "wal_records_acked_total")
	c.Phase1Decoded = cloudCounter("cloud_segments_decoded_total")
	if c.Phase1Appended != soakSegments {
		t.Fatalf("phase 1 wal appended = %d, want %d", c.Phase1Appended, soakSegments)
	}
	if c.Phase1Acked != soakForward {
		t.Fatalf("phase 1 wal acked = %d, want %d", c.Phase1Acked, soakForward)
	}
	if c.Phase1Decoded != soakForward {
		t.Fatalf("phase 1 cloud decodes = %d, want %d", c.Phase1Decoded, soakForward)
	}
	if got := counter(t, g1, "gateway_spool_dropped_total"); got != 0 {
		t.Fatalf("phase 1 drops = %d, want 0", got)
	}
	if got := len(payloadSet(reports1)); got != soakForward {
		t.Fatalf("phase 1 delivered %d packets, want %d", got, soakForward)
	}
	names, err := faults.OS().List(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("kill left no WAL files behind")
	}

	// ---- Phase 2: restart over the same WAL dir under a fresh epoch. ----
	j2 := obs.NewJournal(obs.DefaultJournalRing)
	h2 := obs.NewHealth()
	g2, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4, Journal: j2, Health: h2, Tracer: phaseTracer("gateway-p2")})
	if err != nil {
		t.Fatal(err)
	}
	captures2 := make(chan []complex128, soakFresh)
	for i := 0; i < soakFresh; i++ {
		payload := fmt.Sprintf("soak packet %d", soakSegments+i)
		allPayloads = append(allPayloads, payload)
		captures2 <- techCapture(t, ts[i%len(ts)], uint64(800+i), []byte(payload))
	}
	close(captures2)

	dial2 := func() (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		go func() {
			//lint:ignore errdrop the session ends with the gateway's bye; the decode ledger is the contract
			_ = svc.ServeConn(b)
		}()
		return a, nil
	}
	var reports2 []backhaul.FramesReport
	err = g2.RunResilient(Resilient{
		Dial:          dial2,
		Retry:         resiliencePolicy(time.Millisecond),
		SpoolCapacity: 16,
		Epoch:         8,
		WALDir:        walDir,
	}, captures2, func(r backhaul.FramesReport) {
		mu.Lock()
		reports2 = append(reports2, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}

	const replayCount = soakSegments - soakForward
	c.Phase2Replayed = counter(t, g2, "wal_records_replayed_total")
	c.Phase2Truncated = counter(t, g2, "wal_truncated_records_total")
	c.Phase2Appended = counter(t, g2, "wal_records_appended_total")
	c.Phase2Acked = counter(t, g2, "wal_records_acked_total")
	c.Phase2Compacted = counter(t, g2, "wal_files_compacted_total")
	c.CloudDecoded = cloudCounter("cloud_segments_decoded_total")
	c.CloudDeduped = cloudCounter("cloud_segments_deduped_total")
	c.CloudSuperseded = cloudCounter("cloud_dedup_superseded_total")

	if c.Phase2Replayed != replayCount {
		t.Fatalf("phase 2 replayed = %d, want %d", c.Phase2Replayed, replayCount)
	}
	if c.Phase2Truncated != 0 {
		t.Fatalf("phase 2 truncated = %d, want 0 (clean record boundaries only)", c.Phase2Truncated)
	}
	if c.Phase2Appended != soakFresh {
		t.Fatalf("phase 2 appended = %d, want %d (recovered entries must not re-journal)", c.Phase2Appended, soakFresh)
	}
	if want := uint64(replayCount + soakFresh); c.Phase2Acked != want {
		t.Fatalf("phase 2 acked = %d, want %d", c.Phase2Acked, want)
	}
	if c.Phase2Compacted == 0 {
		t.Fatal("clean shutdown compacted no WAL files")
	}
	if got := counter(t, g2, "gateway_reconnects_total"); got != 0 {
		t.Fatalf("phase 2 reconnects = %d, want 0", got)
	}
	if got := counter(t, g2, "gateway_dial_attempts_total"); got != 1 {
		t.Fatalf("phase 2 dials = %d, want 1", got)
	}

	// Exactly-once across the restart: every admitted segment decoded once,
	// no duplicate ever reached the farm (fresh epoch, so nothing was even
	// answered from the dedup cache), and the dead epoch's cache entries
	// were superseded at the re-hello.
	if want := uint64(soakSegments + soakFresh); c.CloudDecoded != want {
		t.Fatalf("cloud decodes across restart = %d, want %d", c.CloudDecoded, want)
	}
	if c.CloudDeduped != 0 {
		t.Fatalf("cloud dedup answered %d replays, want 0 (fresh epoch)", c.CloudDeduped)
	}
	if c.CloudSuperseded != soakForward {
		t.Fatalf("cloud superseded %d dead-epoch entries, want %d", c.CloudSuperseded, soakForward)
	}
	combined := payloadSet(append(append([]backhaul.FramesReport(nil), reports1...), reports2...))
	c.DistinctPackets = len(combined)
	if len(combined) != soakSegments+soakFresh {
		t.Fatalf("recovered %d packets across restart, want %d: %v", len(combined), soakSegments+soakFresh, combined)
	}
	seen := make(map[string]bool, len(combined))
	for _, p := range combined {
		if seen[p] {
			t.Fatalf("packet %q delivered more than once across the restart", p)
		}
		seen[p] = true
	}
	for _, p := range allPayloads {
		if !seen[p] {
			t.Fatalf("packet %q lost across the restart", p)
		}
	}

	// Trace continuity across the kill: every segment decoded on either
	// side of the restart assembles into one trace stitched across the
	// gateway/cloud boundary; each of the five WAL-recovered segments kept
	// its original trace identity (the ID rode through the WAL and back
	// onto the wire) and gained a wal_replay span on that same trace; no
	// span anywhere lost its parent, and every cloud span was parented
	// from the wire.
	l := traceAudit(store)
	c.TraceStitched = l.stitched
	c.TraceWALReplays = l.walReplays
	c.TraceOrphans = l.orphans
	if want := soakSegments + soakFresh; l.stitched != want {
		t.Fatalf("stitched traces = %d, want %d (one per decoded segment)", l.stitched, want)
	}
	if l.walReplays != replayCount {
		t.Fatalf("wal_replay traces = %d, want %d", l.walReplays, replayCount)
	}
	if l.replays != 0 {
		t.Fatalf("in-session replay traces = %d, want 0 (phase 2 never reconnects)", l.replays)
	}
	if l.orphans != 0 || l.unparented != 0 {
		t.Fatalf("orphans = %d, unparented cloud spans = %d, want 0/0", l.orphans, l.unparented)
	}

	// The recovery is journaled before the session establishes, with the
	// replay count as its value.
	events := j2.Recent()
	recoverIdx, establishIdx := -1, -1
	for i, e := range events {
		switch e.Name {
		case "wal_window_recover":
			if recoverIdx == -1 {
				recoverIdx = i
				if e.Value != replayCount {
					t.Fatalf("wal_window_recover value = %d, want %d", e.Value, replayCount)
				}
			}
		case "gateway_session_establish":
			if establishIdx == -1 {
				establishIdx = i
			}
		}
	}
	if recoverIdx == -1 {
		t.Fatalf("no wal_window_recover event journaled: %+v", events)
	}
	if establishIdx == -1 || recoverIdx > establishIdx {
		t.Fatalf("wal_window_recover (idx %d) must precede establish (idx %d)", recoverIdx, establishIdx)
	}

	// The readiness surface carries both WAL checks, healthy after the run.
	ready := h2.Readiness()
	checkNames := make(map[string]bool, len(ready.Checks))
	for _, chk := range ready.Checks {
		checkNames[chk.Name] = chk.Healthy
	}
	for _, name := range []string{"wal_dir_ready", "wal_backlog_headroom"} {
		healthy, ok := checkNames[name]
		if !ok {
			t.Fatalf("readiness check %q not registered (got %v)", name, checkNames)
		}
		if !healthy {
			t.Fatalf("readiness check %q unhealthy after clean run", name)
		}
	}

	// A clean shutdown with an empty backlog leaves no WAL files: the next
	// start recovers nothing.
	names, err = faults.OS().List(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("WAL dir not empty after clean shutdown: %v", names)
	}

	if path := os.Getenv("WAL_SOAK_REPORT"); path != "" {
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write soak report: %v", err)
		}
	}
}
