package obs

import "testing"

// TestTraceStoreKeepsTailUnderHealthyLoad drives the store's one retention
// rule: past TraceStoreCapacity the oldest ordinary trace goes first, and a
// keeper goes only when every retained trace is a keeper. One replayed
// trace must outlive any amount of healthy traffic.
func TestTraceStoreKeepsTailUnderHealthyLoad(t *testing.T) {
	t.Parallel()
	const ordinary = 20000
	reg := NewRegistry()
	store := NewTraceStore(reg)
	evicted := reg.Counter("trace_traces_evicted_total")
	span := func(id uint64, stages ...string) SpanSnapshot {
		sn := SpanSnapshot{TraceID: id, SpanID: id, Kind: "cloud-segment"}
		for _, name := range stages {
			sn.Stages = append(sn.Stages, Stage{Name: name, Dur: 1})
		}
		return sn
	}

	const replayID = 1
	store.Ingest(span(replayID, "decode", "replay"))
	// No stage outside the keeper set promotes a trace.
	plain := []string{"decode", "dedup_hit", "skip", "deadline"}
	for i := 0; i < ordinary; i++ {
		store.Ingest(span(uint64(2+i), plain[i%len(plain)]))
	}
	if _, ok := store.Trace(replayID); !ok {
		t.Fatalf("replay trace evicted by %d ordinary traces", ordinary)
	}
	if got := store.Len(); got != TraceStoreCapacity {
		t.Fatalf("retained %d traces, want %d", got, TraceStoreCapacity)
	}
	// Ordinary traces go oldest first: the newest capacity-1 survive.
	trees := store.Trees()
	if trees[0].TraceID != replayID {
		t.Fatalf("oldest retained trace = %d, want the replay trace", trees[0].TraceID)
	}
	for i, tr := range trees[1:] {
		if want := uint64(2 + ordinary - (TraceStoreCapacity - 1) + i); tr.TraceID != want {
			t.Fatalf("retained trace %d = %d, want %d", i+1, tr.TraceID, want)
		}
	}
	if got, want := evicted.Value(), uint64(ordinary+1-TraceStoreCapacity); got != want {
		t.Fatalf("evicted = %d, want %d", got, want)
	}

	// Every keeper stage, and a dropped stage, promotes its trace. Fill the
	// store with keepers: the ordinary traces go first, and the replay
	// trace survives until TraceStoreCapacity newer keepers have arrived.
	keepers := []SpanSnapshot{
		span(0, "wal_replay"),
		span(0, "busy_reject"),
		span(0, "spool_drop"),
		{Kind: "cloud-segment", DroppedStages: 1},
	}
	next := uint64(1 << 32)
	for k := 1; k < TraceStoreCapacity; k++ {
		sn := keepers[k%len(keepers)]
		sn.TraceID, sn.SpanID = next, next
		next++
		store.Ingest(sn)
	}
	if _, ok := store.Trace(replayID); !ok {
		t.Fatalf("replay trace evicted by %d newer keepers", TraceStoreCapacity-1)
	}
	for _, tr := range store.Trees() {
		if tr.TraceID != replayID && tr.TraceID < 1<<32 {
			t.Fatalf("ordinary trace %d outlived a keeper", tr.TraceID)
		}
	}
	sn := keepers[0]
	sn.TraceID, sn.SpanID = next, next
	store.Ingest(sn)
	if _, ok := store.Trace(replayID); ok {
		t.Fatalf("replay trace survived %d newer keepers in a store of %d", TraceStoreCapacity, TraceStoreCapacity)
	}
	// Every trace ingested so far is gone but the capacity newest keepers.
	if got, want := evicted.Value(), uint64(ordinary+1); got != want {
		t.Fatalf("evicted = %d, want %d", got, want)
	}
	if got := store.Len(); got != TraceStoreCapacity {
		t.Fatalf("retained %d traces, want %d", got, TraceStoreCapacity)
	}
}
