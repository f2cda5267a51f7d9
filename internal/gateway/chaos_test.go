package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// chaosRun drives RunResilient over chaosSegments captures against a fresh
// farm-backed cloud, wrapping each dialed connection with the fault
// schedule (nil = fault-free control). It returns the gateway, the cloud
// service, and the reports the gateway delivered.
const chaosSegments = 8

// chaosTracers wires a gateway-side and a cloud-side tracer (distinct
// sites, as two processes would have) into one shared trace store, which
// stitches their spans by the wire-propagated trace ID.
func chaosTracers(store *obs.TraceStore, gwSite string) (*obs.Tracer, *obs.Tracer) {
	gw := obs.NewTracer()
	gw.SetSite(gwSite)
	gw.SetSink(store.Ingest)
	cl := obs.NewTracer()
	cl.SetSite("cloud")
	cl.SetSink(store.Ingest)
	return gw, cl
}

func chaosRun(t *testing.T, sched *faults.Schedule, epoch uint64, j *obs.Journal, store *obs.TraceStore) (*Gateway, *cloud.Service, []backhaul.FramesReport) {
	t.Helper()
	ts := resTechs()
	gwTracer, cloudTracer := chaosTracers(store, "gateway")
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4, Journal: j, Tracer: gwTracer})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)
	svc.UseObs(nil, cloudTracer)
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()

	captures := make(chan []complex128, chaosSegments)
	for i := 0; i < chaosSegments; i++ {
		tech := ts[i%len(ts)]
		captures <- techCapture(t, tech, uint64(90+i), []byte(fmt.Sprintf("chaos packet %d", i)))
	}
	close(captures)

	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		go func() {
			// Session errors are expected on faulted connections; the
			// assertions below check the decode ledger instead.
			//lint:ignore errdrop faulted sessions fail by design, the decode counters are the contract
			_ = svc.ServeConn(b)
		}()
		var rwc io.ReadWriteCloser = a
		if sched != nil {
			rwc = sched.Wrap(dials, a)
		}
		dials++
		return rwc, nil
	}

	var mu sync.Mutex
	var reports []backhaul.FramesReport
	err = g.RunResilient(Resilient{
		Dial:  dial,
		Retry: resiliencePolicy(time.Millisecond),
		Epoch: epoch,
	}, captures, func(r backhaul.FramesReport) {
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, svc, reports
}

// traceLedger reduces an assembled trace store to the numbers the soaks
// assert on: how many traces were stitched across the gateway/cloud
// boundary, how many carry replay evidence, and whether any span's parent
// failed to assemble.
type traceLedger struct {
	traces     int // assembled traces in the store
	stitched   int // traces with both gateway-side and cloud-side spans
	replays    int // traces carrying a "replay" stage (in-session re-send)
	walReplays int // traces carrying a "wal_replay" stage (post-restart re-send)
	orphans    int // spans whose parent never assembled into their trace
	unparented int // cloud spans that arrived without a wire-propagated parent
}

func traceAudit(store *obs.TraceStore) traceLedger {
	var l traceLedger
	for _, tree := range store.Trees() {
		l.traces++
		l.orphans += tree.Orphans
		var gw, cl, replay, walReplay bool
		for _, sp := range tree.Spans {
			switch {
			case strings.HasPrefix(sp.Kind, "gateway"):
				gw = true
			case strings.HasPrefix(sp.Kind, "cloud"):
				cl = true
				if sp.Parent == 0 {
					l.unparented++
				}
			}
			for _, st := range sp.Stages {
				switch st.Name {
				case "replay":
					replay = true
				case "wal_replay":
					walReplay = true
				}
			}
		}
		if gw && cl {
			l.stitched++
		}
		if replay {
			l.replays++
		}
		if walReplay {
			l.walReplays++
		}
	}
	return l
}

// payloadSet flattens the CRC-clean frame payloads of a run, sorted.
func payloadSet(reports []backhaul.FramesReport) []string {
	var out []string
	for _, r := range reports {
		for _, f := range r.Frames {
			if f.CRCOK {
				out = append(out, string(f.Payload))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestChaosSoak runs the full resilient gateway↔cloud pipeline twice over
// identical traffic: once fault-free, once through a seeded fault injector
// that corrupts and kills the backhaul mid-frame on six consecutive
// connections. The chaos run must recover every packet the control run
// recovered, reconnect exactly as many times as the schedule kills, drop
// nothing, and get every segment decoded exactly once by the cloud.
func TestChaosSoak(t *testing.T) {
	// Control: no faults — zero reconnects, zero drops, every segment
	// decoded exactly once.
	j0 := obs.NewJournal(obs.DefaultJournalRing)
	store0 := obs.NewTraceStore(nil)
	g0, svc0, rep0 := chaosRun(t, nil, 3, j0, store0)
	if got := counter(t, g0, "gateway_reconnects_total"); got != 0 {
		t.Fatalf("control reconnects = %d, want 0", got)
	}
	if got := counter(t, g0, "gateway_spool_dropped_total"); got != 0 {
		t.Fatalf("control drops = %d, want 0", got)
	}
	if got := counter(t, g0, "gateway_dial_attempts_total"); got != 1 {
		t.Fatalf("control dials = %d, want 1", got)
	}
	if got := svc0.Registry().Counter("cloud_segments_decoded_total").Value(); got != chaosSegments {
		t.Fatalf("control cloud decodes = %d, want %d", got, chaosSegments)
	}
	control := payloadSet(rep0)
	if len(control) != chaosSegments {
		t.Fatalf("control recovered %d packets, want %d: %v", len(control), chaosSegments, control)
	}
	// The control journal is a single clean session: establish, nothing else.
	if evs := j0.Recent(); len(evs) != 1 || evs[0].Name != "gateway_session_establish" {
		t.Fatalf("control journal = %+v, want exactly one establish", evs)
	}
	// Trace continuity, fault-free: every decoded segment assembled into
	// one trace whose gateway and cloud spans share the wire-propagated
	// trace ID — no orphans, no replays, every cloud span parented from the
	// wire. The single session span forms its own (unstitched) trace.
	l0 := traceAudit(store0)
	if l0.stitched != chaosSegments {
		t.Fatalf("control stitched traces = %d, want %d", l0.stitched, chaosSegments)
	}
	if l0.traces != chaosSegments+1 {
		t.Fatalf("control traces = %d, want %d segments + 1 session", l0.traces, chaosSegments+1)
	}
	if l0.orphans != 0 || l0.unparented != 0 {
		t.Fatalf("control orphans = %d, unparented cloud spans = %d, want 0/0", l0.orphans, l0.unparented)
	}
	if l0.replays != 0 || l0.walReplays != 0 {
		t.Fatalf("control replay traces = %d/%d, want 0/0", l0.replays, l0.walReplays)
	}

	// Chaos: six consecutive connections die mid-frame (one corrupted
	// first), starting past the hello so every session establishes.
	sched := faults.GenSchedule(11, 6, 600, 3000)
	if sched.Faulty() != 6 {
		t.Fatalf("schedule kills %d connections, want 6", sched.Faulty())
	}
	j1 := obs.NewJournal(obs.DefaultJournalRing)
	store1 := obs.NewTraceStore(nil)
	g1, svc1, rep1 := chaosRun(t, &sched, 4, j1, store1)

	if got, want := counter(t, g1, "gateway_reconnects_total"), uint64(sched.Faulty()); got != want {
		t.Fatalf("chaos reconnects = %d, want %d (one per scheduled kill)", got, want)
	}
	if got := counter(t, g1, "gateway_spool_dropped_total"); got != 0 {
		t.Fatalf("chaos drops = %d, want 0", got)
	}
	if got := counter(t, g1, "gateway_dial_attempts_total"); got != uint64(sched.Faulty()+1) {
		t.Fatalf("chaos dials = %d, want %d", got, sched.Faulty()+1)
	}
	// Every faulted session dies during its first segment write, so the
	// oldest segment finally ships on the clean session — one replay.
	if got := counter(t, g1, "gateway_replayed_segments_total"); got != 1 {
		t.Fatalf("chaos replays = %d, want 1", got)
	}
	// Exactly-once decode: the cloud decoded each segment once, and the
	// dedup cache never had to answer (no segment survived a faulted
	// connection intact).
	if got := svc1.Registry().Counter("cloud_segments_decoded_total").Value(); got != chaosSegments {
		t.Fatalf("chaos cloud decodes = %d, want %d", got, chaosSegments)
	}
	chaos := payloadSet(rep1)
	if len(chaos) != len(control) {
		t.Fatalf("chaos recovered %d packets, control %d", len(chaos), len(control))
	}
	for i := range control {
		if chaos[i] != control[i] {
			t.Fatalf("chaos run lost packets:\nchaos   %v\ncontrol %v", chaos, control)
		}
	}
	if st := g1.Stats(); st.SegmentsShipped != chaosSegments {
		t.Fatalf("chaos shipped = %d, want %d", st.SegmentsShipped, chaosSegments)
	}

	// Trace continuity under faults: the kills cost no trace identity.
	// Every decoded segment still assembles into one gateway+cloud trace,
	// the one replayed segment carries its replay stage on the SAME trace
	// it was detected on (the wire re-propagated the original context),
	// and no span anywhere lost its parent. Each of the seven sessions
	// contributes its own session-only trace.
	l1 := traceAudit(store1)
	if l1.stitched != chaosSegments {
		t.Fatalf("chaos stitched traces = %d, want %d", l1.stitched, chaosSegments)
	}
	if want := chaosSegments + sched.Faulty() + 1; l1.traces != want {
		t.Fatalf("chaos traces = %d, want %d segments + %d sessions", l1.traces, want, sched.Faulty()+1)
	}
	if l1.orphans != 0 || l1.unparented != 0 {
		t.Fatalf("chaos orphans = %d, unparented cloud spans = %d, want 0/0", l1.orphans, l1.unparented)
	}
	if l1.replays != 1 {
		t.Fatalf("chaos replay traces = %d, want 1 (the re-shipped oldest segment)", l1.replays)
	}
	if l1.walReplays != 0 {
		t.Fatalf("chaos wal_replay traces = %d, want 0 (no WAL in this soak)", l1.walReplays)
	}

	// The event journal is fully deterministic for this schedule: the first
	// session establishes, each of the six kills appends die+backoff+establish
	// (RunResilient's single control flow orders them strictly), and the
	// clean seventh session ends the run without dying. Assert the exact
	// sequence as served by /events/recent — the same bytes an operator or
	// the fault dump would see.
	events := fetchEvents(t, j1)
	want := []string{"gateway_session_establish"}
	for i := 0; i < sched.Faulty(); i++ {
		want = append(want, "gateway_session_die", "gateway_redial_backoff", "gateway_session_establish")
	}
	if len(events) != len(want) {
		t.Fatalf("/events/recent returned %d events, want %d:\n%+v", len(events), len(want), events)
	}
	for i, e := range events {
		if e.Name != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %+v)", i, e.Name, want[i], events)
		}
		if e.Count != 1 {
			t.Fatalf("event %d (%s) coalesced count = %d, want 1", i, e.Name, e.Count)
		}
		if e.Seq != uint64(i) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i)
		}
	}
}

// fetchEvents serves j on a real obs endpoint and fetches /events/recent,
// so the assertion covers the HTTP surface, not just the in-process ring.
func fetchEvents(t *testing.T, j *obs.Journal) []obs.Event {
	t.Helper()
	srv := &obs.Server{Journal: j}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("obs server close: %v", err)
		}
	}()
	resp, err := http.Get("http://" + srv.Addr().String() + "/events/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events/recent status = %d", resp.StatusCode)
	}
	var events []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestHealthzFlipsAcrossOutage drives /healthz through an induced backhaul
// outage: while every dial fails the gateway_backhaul_connected check
// reports unhealthy (503), and once the outage lifts and the session
// re-establishes the endpoint recovers to 200.
func TestHealthzFlipsAcrossOutage(t *testing.T) {
	ts := resTechs()
	h := obs.NewHealth()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4, Health: h})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 8})
	defer svc.Close()

	srv := &obs.Server{Health: h}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("obs server close: %v", err)
		}
	}()
	healthz := "http://" + srv.Addr().String() + "/healthz"

	var outage atomic.Bool
	outage.Store(true)
	dial := func() (io.ReadWriteCloser, error) {
		if outage.Load() {
			return nil, fmt.Errorf("induced outage")
		}
		a, b := net.Pipe()
		go func() {
			//lint:ignore errdrop the session ends when the test closes captures; its error is not the contract here
			_ = svc.ServeConn(b)
		}()
		return a, nil
	}

	captures := make(chan []complex128)
	done := make(chan error, 1)
	go func() {
		done <- g.RunResilient(Resilient{
			Dial: dial,
			// A deep consecutive-attempt budget: the outage must outlast
			// however long the status poll below takes, never the budget.
			Retry: resilience.RetryPolicy{MaxAttempts: 1 << 20, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1},
			Epoch: 9,
		}, captures, nil)
	}()

	// Poll until the registered check reports the outage...
	waitStatus(t, healthz, http.StatusServiceUnavailable)
	// ...lift it, and the next successful hello must flip the check back.
	outage.Store(false)
	waitStatus(t, healthz, http.StatusOK)

	close(captures)
	if err := <-done; err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
}

// waitStatus polls url until it answers with the wanted status code.
func waitStatus(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached status %d", url, want)
}
