package farm

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/obs"
)

// echoDecode is a stub decode that reports the segment's start back, so
// tests can match results to submissions without real DSP work.
func echoDecode(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
	return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{SICRounds: 1}, nil
}

func seg(start int64, samples int) backhaul.Segment {
	return backhaul.Segment{Start: start, SampleRate: 1e6, Samples: make([]complex128, samples)}
}

func TestSubmitRunsEveryJob(t *testing.T) {
	f := New(Config{Workers: 3, QueueDepth: 4, Decode: echoDecode})
	const jobs = 20
	var mu sync.Mutex
	got := make(map[int64]bool)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		if err := f.Submit(context.Background(), seg(int64(i), 10), func(r Result) {
			defer wg.Done()
			if r.Err != nil {
				t.Errorf("job failed: %v", r.Err)
			}
			mu.Lock()
			got[r.Report.SegmentStart] = true
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	f.Close()
	if len(got) != jobs {
		t.Fatalf("%d distinct results, want %d", len(got), jobs)
	}
	st := f.Snapshot()
	if st.Admitted != jobs || st.Completed != jobs || st.Rejected != 0 || st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTrySubmitRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 64)
	blocked := func(ctx context.Context, s backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{SegmentStart: s.Start}, cancel.Stats{}, nil
	}
	f := New(Config{Workers: 1, QueueDepth: 2, Decode: blocked})
	var done sync.WaitGroup
	submit := func() error {
		done.Add(1)
		err := f.TrySubmit(context.Background(), seg(0, 1), func(Result) { done.Done() })
		if err != nil {
			done.Done()
		}
		return err
	}
	// First job occupies the worker...
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	<-dispatched
	// ...two more fill the queue...
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	// ...and the fourth must be rejected, not queued.
	if err := submit(); err != ErrBusy {
		t.Fatalf("4th submit: %v, want ErrBusy", err)
	}
	close(gate)
	done.Wait()
	f.Close()
	st := f.Snapshot()
	if st.Rejected != 1 || st.Admitted != 3 || st.Completed != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCloseDrainsWithoutLoss(t *testing.T) {
	f := New(Config{Workers: 2, QueueDepth: 64, Decode: echoDecode})
	const jobs = 32
	var completed atomic.Int64
	for i := 0; i < jobs; i++ {
		if err := f.Submit(context.Background(), seg(int64(i), 100), func(r Result) {
			completed.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Close must finish every admitted job before returning.
	f.Close()
	if n := completed.Load(); n != jobs {
		t.Fatalf("drain lost jobs: %d of %d completed", n, jobs)
	}
	if err := f.Submit(context.Background(), seg(0, 1), func(Result) {}); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := f.TrySubmit(context.Background(), seg(0, 1), func(Result) {}); err != ErrClosed {
		t.Fatalf("trysubmit after close: %v, want ErrClosed", err)
	}
}

func TestCancelledJobSkipped(t *testing.T) {
	ctx, cancel0 := context.WithCancel(context.Background())
	cancel0() // dead before admission
	f := New(Config{Workers: 1, QueueDepth: 4, Decode: echoDecode})
	var wg sync.WaitGroup
	wg.Add(1)
	var res Result
	if err := f.Submit(ctx, seg(7, 10), func(r Result) { res = r; wg.Done() }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	f.Close()
	if res.Err == nil {
		t.Fatal("cancelled job decoded anyway")
	}
	if st := f.Snapshot(); st.DeadlineExceeded != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFarmQueueStageOnTracerClock pins farm_queue to the span's tracer
// clock: a job dispatched at once waits 0 ticks, and a job held behind a
// pinned worker waits exactly the ticks that passed while it sat in the
// queue, whatever the segments' lengths.
func TestFarmQueueStageOnTracerClock(t *testing.T) {
	var ticks atomic.Int64
	var mu sync.Mutex
	waits := make(map[uint64][]int64) // trace ID -> farm_queue durations
	tr := obs.NewTracer()
	tr.SetClock(ticks.Load)
	tr.SetSink(func(sn obs.SpanSnapshot) {
		mu.Lock()
		defer mu.Unlock()
		for _, st := range sn.Stages {
			if st.Name == "farm_queue" {
				waits[sn.TraceID] = append(waits[sn.TraceID], st.Dur)
			}
		}
	})

	gate := make(chan struct{})
	dispatched := make(chan struct{}, 8)
	blocked := func(ctx context.Context, s backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{}, cancel.Stats{}, nil
	}
	f := New(Config{Workers: 1, QueueDepth: 8, Decode: blocked})
	var wg sync.WaitGroup
	submit := func(trace uint64, n int) {
		sp := tr.Start("cloud", trace)
		wg.Add(1)
		if err := f.Submit(obs.ContextWithSpan(context.Background(), sp), seg(0, n), func(Result) {
			sp.End()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	ticks.Store(1000)
	submit(1, 10) // dispatched at once: the worker is idle
	<-dispatched
	submit(2, 100) // queued behind the pinned worker
	ticks.Add(250)
	close(gate)
	wg.Wait()
	f.Close()

	mu.Lock()
	defer mu.Unlock()
	if w := waits[1]; len(w) != 1 || w[0] != 0 {
		t.Errorf("idle-farm job farm_queue = %v, want [0]", w)
	}
	if w := waits[2]; len(w) != 1 || w[0] != 250 {
		t.Errorf("queued job farm_queue = %v, want [250]", w)
	}
}

func TestConcurrentSubmittersRace(t *testing.T) {
	f := New(Config{Workers: 4, QueueDepth: 8, Decode: echoDecode})
	const (
		submitters = 6
		each       = 25
	)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := f.Submit(context.Background(), seg(int64(g*1000+i), 50), func(Result) {
					completed.Add(1)
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	f.Close()
	if n := completed.Load(); n != submitters*each {
		t.Fatalf("completed %d of %d", n, submitters*each)
	}
}

func TestSequencerOrdersOutOfOrderCompletions(t *testing.T) {
	var s Sequencer
	slots := make([]uint64, 5)
	for i := range slots {
		slots[i] = s.Reserve()
	}
	var order []uint64
	record := func(slot uint64) func() {
		return func() { order = append(order, slot) }
	}
	// Deliver out of order: 2, 4, 1, 0, 3.
	s.Deliver(slots[2], record(2))
	s.Deliver(slots[4], record(4))
	s.Deliver(slots[1], record(1))
	s.Deliver(slots[0], record(0)) // releases 0, 1, 2
	s.Deliver(slots[3], record(3)) // releases 3, 4
	s.Wait()
	for i, slot := range order {
		if slot != uint64(i) {
			t.Fatalf("reply order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d callbacks", len(order))
	}
}

func TestSequencerWaitBlocksUntilDelivered(t *testing.T) {
	var s Sequencer
	slot := s.Reserve()
	released := make(chan struct{})
	go func() {
		s.Wait()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Wait returned with a slot outstanding")
	default:
	}
	s.Deliver(slot, func() {})
	<-released
}

func TestSequencerReserveDoesNotWaitOnCallback(t *testing.T) {
	var s Sequencer
	s.Reserve()
	s.Reserve()
	release := make(chan struct{})
	started := make(chan struct{})
	var running atomic.Int32
	var overlapped atomic.Bool
	var mu sync.Mutex
	var order []uint64
	callback := func(slot uint64, block bool) func() {
		return func() {
			if running.Add(1) > 1 {
				overlapped.Store(true)
			}
			if block {
				close(started)
				<-release
			}
			mu.Lock()
			order = append(order, slot)
			mu.Unlock()
			running.Add(-1)
		}
	}
	go s.Deliver(0, callback(0, true))
	<-started // slot 0's callback is now stuck, as a reply write on a full pipe is

	// Neither a reader reserving the next slot nor a worker delivering a
	// later one may wait behind the stuck callback.
	returned := make(chan struct{})
	go func() {
		s.Reserve()
		s.Deliver(1, callback(1, false))
		s.Deliver(2, func() {})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Reserve/Deliver blocked behind a running callback")
	}
	waited := make(chan struct{})
	go func() {
		s.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while slot 0's callback was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-waited
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("callbacks ran in order %v, want [0 1]", order)
	}
	if overlapped.Load() {
		t.Fatal("two callbacks ran concurrently")
	}
}
