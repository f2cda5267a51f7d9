package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/rng"
	"repro/internal/sim"
)

// FarmRunner exercises the cloud's decode farm (DESIGN.md §9) on a fixed
// batch of collision segments. The first rows sweep the worker count with
// blocking admission: the recovered-frame count must be identical in every
// row, demonstrating that the farm changes concurrency, never results (the
// run errors out if the counts diverge). The last row overloads a
// one-worker farm through non-blocking admission: the queue bound turns
// the excess into explicit rejects, and the queue-wait quantiles — in
// samples of newer work admitted while a job waited, the repository's
// deterministic stand-in for wall-clock latency — are reported for the
// admitted jobs. Wall-clock speedup lives in BenchmarkFarmThroughput,
// which is allowed to read the clock.
func FarmRunner(opt Options) (Table, error) {
	fs := opt.fs()
	techs := prototypeTechs()
	episodes := opt.trials(3, 8)
	base := rng.New(opt.Seed ^ 0xFA23)

	segs := make([]backhaul.Segment, 0, episodes)
	var start int64
	for i := 0; i < episodes; i++ {
		gen := base.Split(uint64(i))
		specs := []sim.CollisionSpec{
			{Tech: techs[i%len(techs)], SNRdB: 12, PayloadLen: 6 + gen.Intn(4)},
			{Tech: techs[(i+1)%len(techs)], SNRdB: 12, PayloadLen: 6 + gen.Intn(4), OffsetFrac: 0.2 + 0.2*gen.Float64()},
		}
		scen, err := sim.GenCollision(specs, fs, 3000, gen.Split(9))
		if err != nil {
			return Table{}, err
		}
		segs = append(segs, backhaul.Segment{Start: start, SampleRate: fs, Samples: scen.Capture})
		start += int64(len(scen.Capture))
	}

	t := Table{
		ID:     "farm",
		Title:  "Decode-farm scheduling (worker sweep + admission control)",
		Header: []string{"workers", "queue", "offered", "admitted", "rejected", "frames", "p50 wait", "p99 wait"},
		Notes: []string{
			"frames are identical across worker counts: the farm parallelizes, it does not alter decoding",
			"queue waits are on the sample clock (samples admitted while the job sat queued);",
			"they depend on goroutine scheduling in the sweep rows and are shown only for the",
			"deterministic overload row. wall-clock throughput: go test -bench=FarmThroughput",
		},
	}

	// Worker sweep: blocking admission, queue sized to the batch.
	firstFrames := -1
	for _, w := range []int{1, 2, 4, 8} {
		svc := cloud.NewService(techs)
		f := svc.StartFarm(farm.Config{Workers: w, QueueDepth: len(segs)})
		var wg sync.WaitGroup
		for _, seg := range segs {
			wg.Add(1)
			if err := f.Submit(context.Background(), seg, func(farm.Result) { wg.Done() }); err != nil {
				return Table{}, err
			}
		}
		wg.Wait()
		f.Close()
		frames, _, st := svc.Totals()
		if firstFrames == -1 {
			firstFrames = frames
		} else if frames != firstFrames {
			return Table{}, fmt.Errorf("farm: %d workers recovered %d frames, 1 worker recovered %d — results must not depend on concurrency", w, frames, firstFrames)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), fmt.Sprintf("%d", st.QueueDepth), fmt.Sprintf("%d", len(segs)),
			fmt.Sprintf("%d", st.Admitted), fmt.Sprintf("%d", st.Rejected), fmt.Sprintf("%d", frames),
			"-", "-",
		})
	}

	// Overload row: one worker pinned on the first segment while the rest
	// of the batch arrives through non-blocking admission. With the worker
	// provably busy the interleaving is fixed, so admitted/rejected counts
	// and the sample-clock waits are deterministic.
	const overloadQueue = 1
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 1)
	var first sync.Once
	frames := 0
	var mu sync.Mutex
	decode := func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		pinned := false
		first.Do(func() { pinned = true })
		if pinned {
			dispatched <- struct{}{}
			<-gate
		}
		decoded, stats := cancel.NewDecoder(techs, seg.SampleRate).Decode(seg.Samples)
		return backhaul.FramesReport{SegmentStart: seg.Start, Frames: make([]backhaul.FrameReport, len(decoded))}, stats, nil
	}
	f := farm.New(farm.Config{Workers: 1, QueueDepth: overloadQueue, Decode: decode})
	var wg sync.WaitGroup
	count := func(res farm.Result) {
		mu.Lock()
		frames += len(res.Report.Frames)
		mu.Unlock()
		wg.Done()
	}
	wg.Add(1)
	if err := f.Submit(context.Background(), segs[0], count); err != nil {
		return Table{}, err
	}
	<-dispatched // the worker is now pinned; the queue is empty
	rejected := 0
	for _, seg := range segs[1:] {
		wg.Add(1)
		err := f.TrySubmit(context.Background(), seg, count)
		switch err {
		case nil:
		case farm.ErrBusy:
			rejected++
			wg.Done()
		default:
			return Table{}, err
		}
	}
	close(gate)
	wg.Wait()
	f.Close()
	st := f.Snapshot()
	t.Rows = append(t.Rows, []string{
		"1", fmt.Sprintf("%d", overloadQueue), fmt.Sprintf("%d", len(segs)),
		fmt.Sprintf("%d", st.Admitted), fmt.Sprintf("%d", st.Rejected), fmt.Sprintf("%d", frames),
		fmt.Sprintf("%d", st.P50QueueWait), fmt.Sprintf("%d", st.P99QueueWait),
	})
	if int(st.Rejected) != rejected {
		return Table{}, fmt.Errorf("farm: snapshot counts %d rejects, submitter saw %d", st.Rejected, rejected)
	}
	return t, nil
}
