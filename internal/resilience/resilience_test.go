package resilience

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/backhaul"
)

func TestBackoffDeterministic(t *testing.T) {
	t.Parallel()
	pol := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Multiplier: 2, Seed: 42}
	a, b := NewBackoff(pol), NewBackoff(pol)
	for i := 0; i < pol.MaxAttempts; i++ {
		da, oka := a.Next()
		db, okb := b.Next()
		if !oka || !okb {
			t.Fatalf("attempt %d: exhausted too early (oka=%v okb=%v)", i, oka, okb)
		}
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		// Equal jitter: delay in [step/2, step).
		step := float64(pol.BaseDelay)
		for j := 0; j < i; j++ {
			step *= pol.Multiplier
			if step >= float64(pol.MaxDelay) {
				step = float64(pol.MaxDelay)
				break
			}
		}
		if float64(da) < step/2 || float64(da) >= step {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, da, time.Duration(step/2), time.Duration(step))
		}
	}
	if _, ok := a.Next(); ok {
		t.Fatal("expected exhaustion after MaxAttempts")
	}
	if a.Attempts() != pol.MaxAttempts {
		t.Fatalf("Attempts = %d, want %d", a.Attempts(), pol.MaxAttempts)
	}
}

func TestBackoffResetRestoresBudget(t *testing.T) {
	t.Parallel()
	b := NewBackoff(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 7})
	for i := 0; i < 2; i++ {
		if _, ok := b.Next(); !ok {
			t.Fatalf("attempt %d should be within budget", i)
		}
	}
	if _, ok := b.Next(); ok {
		t.Fatal("budget should be exhausted")
	}
	b.Reset()
	if b.Attempts() != 0 {
		t.Fatalf("Attempts after Reset = %d", b.Attempts())
	}
	if _, ok := b.Next(); !ok {
		t.Fatal("Reset should restore the retry budget")
	}
	if err := b.Err(net.ErrClosed); err == nil {
		t.Fatal("Err should wrap the last failure")
	}
}

func TestBackoffDefaults(t *testing.T) {
	t.Parallel()
	b := NewBackoff(RetryPolicy{})
	n := 0
	for {
		if _, ok := b.Next(); !ok {
			break
		}
		n++
	}
	if n != DefaultMaxAttempts {
		t.Fatalf("zero policy allowed %d attempts, want %d", n, DefaultMaxAttempts)
	}
}

func item(start int64) Item {
	return Item{Seg: backhaul.Segment{Start: start}}
}

func TestSpoolDropOldest(t *testing.T) {
	t.Parallel()
	s := NewSpool(3)
	for i := int64(0); i < 3; i++ {
		if _, dropped := s.Put(item(i)); dropped {
			t.Fatalf("unexpected drop filling spool at %d", i)
		}
	}
	// Two more puts evict the two oldest, in order.
	for i := int64(3); i < 5; i++ {
		ev, dropped := s.Put(item(i))
		if !dropped {
			t.Fatalf("put %d: expected eviction", i)
		}
		if ev.Seg.Start != i-3 {
			t.Fatalf("put %d evicted start %d, want %d (drop-oldest)", i, ev.Seg.Start, i-3)
		}
	}
	if s.Len() != 3 || s.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d, want 3/3", s.Len(), s.Cap())
	}
	s.Close()
	var got []int64
	for it := range s.C() {
		got = append(got, it.Seg.Start)
	}
	want := []int64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestSpoolPutAfterClose(t *testing.T) {
	t.Parallel()
	s := NewSpool(2)
	s.Close()
	s.Close() // idempotent
	ev, dropped := s.Put(item(9))
	if !dropped || ev.Seg.Start != 9 {
		t.Fatalf("Put after Close = (%v, %v), want the item itself dropped", ev.Seg.Start, dropped)
	}
}

func TestSpoolMinimumCapacity(t *testing.T) {
	t.Parallel()
	s := NewSpool(0)
	if s.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamped to 1", s.Cap())
	}
	if _, dropped := s.Put(item(1)); dropped {
		t.Fatal("first put should fit")
	}
	ev, dropped := s.Put(item(2))
	if !dropped || ev.Seg.Start != 1 {
		t.Fatalf("second put should evict first, got (%d, %v)", ev.Seg.Start, dropped)
	}
}

func TestWithDeadlinesTimeout(t *testing.T) {
	t.Parallel()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rw := WithDeadlines(a, 20*time.Millisecond, 20*time.Millisecond)
	if rw == any(a) {
		t.Fatal("pipe conn supports deadlines; expected a wrapper")
	}
	buf := make([]byte, 1)
	_, err := rw.Read(buf) // nobody writes: must trip the read deadline
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read err = %v, want timeout", err)
	}
	_, err = rw.Write(make([]byte, 1<<16)) // nobody reads: must trip the write deadline
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Write err = %v, want timeout", err)
	}
}

func TestWithDeadlinesPassThrough(t *testing.T) {
	t.Parallel()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := WithDeadlines(a, 0, 0); got != any(a) {
		t.Fatal("zero timeouts should return the stream unchanged")
	}
	var buf nonDeadlineRW
	if got := WithDeadlines(&buf, time.Second, time.Second); got != any(&buf) {
		t.Fatal("non-deadline stream should pass through unchanged")
	}
}

type nonDeadlineRW struct{}

func (*nonDeadlineRW) Read(p []byte) (int, error)  { return 0, nil }
func (*nonDeadlineRW) Write(p []byte) (int, error) { return len(p), nil }

// TestSpoolPutCloseConcurrent races many producers against Close: every put
// item must be accounted exactly once — drained from the channel or reported
// dropped back to its producer — and nothing may panic on the closed channel.
func TestSpoolPutCloseConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 200
	)
	for round := 0; round < 20; round++ {
		// Capacity covers every item, so pre-Close puts never evict: any
		// dropped report is the Put-after-Close path.
		s := NewSpool(producers * perProd)
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			dropped = make(map[int64]int)
		)
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 0; i < perProd; i++ {
					id := int64(p*perProd + i)
					if ev, drop := s.Put(Item{Seg: backhaul.Segment{Start: id}}); drop {
						mu.Lock()
						dropped[ev.Seg.Start]++
						mu.Unlock()
					}
				}
			}(p)
		}
		close(start)
		s.Close() // race with the producers on purpose
		wg.Wait()

		seen := make(map[int64]int)
		for it := range s.C() {
			seen[it.Seg.Start]++
		}
		for id := int64(0); id < producers*perProd; id++ {
			total := seen[id] + dropped[id]
			if total != 1 {
				t.Fatalf("round %d: item %d accounted %d times (drained %d, dropped %d)",
					round, id, total, seen[id], dropped[id])
			}
		}
	}
}
