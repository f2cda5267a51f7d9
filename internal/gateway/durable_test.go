package gateway

import (
	"testing"

	"repro/internal/backhaul"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/resilience/wal"
)

func durItem(start int64) resilience.Item {
	samples := make([]complex128, 8)
	for i := range samples {
		samples[i] = complex(float64(i)/10, -float64(i)/20)
	}
	return resilience.Item{Seg: backhaul.Segment{Start: start, SampleRate: fs, Samples: samples}}
}

// durableRun is the admission half of a RunResilient call — run state, a
// spool of the given capacity and a WAL opened in dir over fsys — without
// the dial loop, so the journal/spool/ack interplay is checked directly.
func durableRun(t *testing.T, dir string, capacity int, fsys faults.Filesystem) (*resilientRun, []wal.Entry, *wal.Metrics) {
	t.Helper()
	g, err := New(Config{Techs: resTechs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	m := wal.NewMetrics(obs.NewRegistry())
	log, entries, err := wal.Open(wal.Options{Dir: dir, FS: fsys, Metrics: m})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	r := g.newRun(Resilient{}, nil)
	r.spool = resilience.NewSpool(capacity)
	r.source = r.spool.C()
	r.wal = log
	return r, entries, m
}

func cleanFS() faults.Filesystem { return faults.NewFS(faults.OS(), 1, faults.FSPlan{}) }

// TestAdmitJournalsThenSpools: every admitted segment is journaled before it
// is spooled, the spooled item carries its record id, acking it retires the
// record, and a restart recovers exactly the unacked ones, oldest first.
func TestAdmitJournalsThenSpools(t *testing.T) {
	dir := t.TempDir()
	r, entries, m := durableRun(t, dir, 4, cleanFS())
	if len(entries) != 0 {
		t.Fatalf("fresh dir recovered %d entries", len(entries))
	}
	for i := 0; i < 3; i++ {
		r.admit(durItem(int64(100 * (i + 1))))
	}
	if v := m.Appended.Value(); v != 3 {
		t.Fatalf("wal_records_appended_total = %d, want 3", v)
	}
	if n := r.spool.Len(); n != 3 {
		t.Fatalf("%d items spooled, want 3", n)
	}
	it := <-r.source
	if it.WAL == 0 || it.Seg.Start != 100 {
		t.Fatalf("first spooled item: start %d, WAL id %d", it.Seg.Start, it.WAL)
	}
	r.ack(it)
	if v := m.Acked.Value(); v != 1 {
		t.Fatalf("wal_records_acked_total = %d, want 1", v)
	}
	r.wal.Abandon()

	_, entries, _ = durableRun(t, dir, 4, cleanFS())
	if len(entries) != 2 || entries[0].Seg.Start != 200 || entries[1].Seg.Start != 300 {
		t.Fatalf("recovered %+v, want starts [200 300]", entries)
	}
}

// TestAdmitEvictionAcksWAL: an eviction is a final disposition too — the
// evicted segment's record retires with its degraded decode, so a restart
// does not replay what was already dropped and counted.
func TestAdmitEvictionAcksWAL(t *testing.T) {
	r, _, m := durableRun(t, t.TempDir(), 1, cleanFS())
	r.admit(durItem(100))
	r.admit(durItem(200)) // evicts 100 through the degraded path
	if got := r.rm.spoolDropped.Value(); got != 1 {
		t.Fatalf("gateway_spool_dropped_total = %d, want 1", got)
	}
	if v := m.Acked.Value(); v != 1 {
		t.Fatalf("wal_records_acked_total = %d, want the evicted record acked", v)
	}
	if it := <-r.source; it.Seg.Start != 200 || it.WAL == 0 {
		t.Fatalf("survivor: start %d, WAL id %d", it.Seg.Start, it.WAL)
	}
	if n := r.wal.Backlog(); n != 1 {
		t.Fatalf("backlog = %d, want only the survivor", n)
	}
	r.wal.Abandon()
}

// TestAdmitAppendErrorAbsorbed checks the durability contract under disk
// failure: the segment still ships from memory, it just carries no WAL id,
// and the error is counted.
func TestAdmitAppendErrorAbsorbed(t *testing.T) {
	fsys := faults.NewFS(faults.OS(), 1, faults.FSPlan{Events: []faults.FSEvent{
		{Op: faults.FSWriteErr, Nth: 1},
	}})
	r, _, m := durableRun(t, t.TempDir(), 4, fsys)
	r.admit(durItem(100))
	it := <-r.source
	if it.WAL != 0 {
		t.Fatalf("item journaled through a failed write carries id %d", it.WAL)
	}
	if v := m.AppendErrors.Value(); v != 1 {
		t.Fatalf("wal_append_errors_total = %d, want 1", v)
	}
	if got := r.rm.spoolDropped.Value(); got != 0 {
		t.Fatalf("append failure dropped the segment (%d drops)", got)
	}
	r.ack(it) // id 0: nothing to retire, must not panic
	r.wal.Abandon()
}
