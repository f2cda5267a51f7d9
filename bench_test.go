// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the DESIGN.md ablations. Each benchmark regenerates the
// corresponding artifact (in quick mode, for bounded runtimes) and reports
// the headline metrics alongside ns/op, so a single
//
//	go test -bench=. -benchmem
//
// run produces the full reproduction record. The same drivers with full
// trial counts are available via cmd/galiot-sim.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/galiot"
	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/rng"
	"repro/internal/sim"
)

var benchOpt = experiments.Options{Seed: 1, Quick: true}

// BenchmarkTable1Registry regenerates Table 1 (technology catalog).
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table1Runner(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) < 10 {
			b.Fatalf("table1 rows %d", len(tab.Rows))
		}
	}
}

// BenchmarkFig3bDetection regenerates Fig. 3(b): detection ratio vs SNR for
// the energy baseline, universal preamble and matched bank. Headline
// metrics are reported as custom benchmark units.
func BenchmarkFig3bDetection(b *testing.B) {
	var s experiments.Fig3bSeries
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunFig3b(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(s.Universal) == 5 {
		b.ReportMetric(s.Universal[0], "uni@-30..-20dB")
		b.ReportMetric(s.Energy[1], "energy@-20..-10dB")
		b.ReportMetric(s.Matched[0], "matched@-30..-20dB")
	}
}

// BenchmarkFig3cCollisions regenerates Fig. 3(c): collision-decoding
// throughput for SIC vs GalioT across SNR regimes.
func BenchmarkFig3cCollisions(b *testing.B) {
	var s experiments.Fig3cSeries
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunFig3c(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(s.GalioT) == 3 {
		var sic, cloud float64
		for i := range s.GalioT {
			sic += s.SIC[i]
			cloud += s.GalioT[i]
		}
		b.ReportMetric(cloud, "galiot-bps-total")
		b.ReportMetric(sic, "sic-bps-total")
		if sic > 0 {
			b.ReportMetric(cloud/sic, "throughput-multiple")
		}
	}
}

// BenchmarkHeadlineDetect regenerates the Sec. 1 detection headline
// (universal vs energy below -10 dB).
func BenchmarkHeadlineDetect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeadlineDetect(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlineThroughput regenerates the Sec. 1 throughput headline
// (7.46x over SIC in the paper).
func BenchmarkHeadlineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeadlineThroughput(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackhaul regenerates the Sec. 4/6 backhaul tradeoff table.
func BenchmarkBackhaul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Backhaul(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUniversalScaling measures the universal preamble's
// detection cost as technologies are added (DESIGN ablation 1): one
// correlation regardless of the set size, versus the matched bank's linear
// growth.
func BenchmarkAblationUniversalScaling(b *testing.B) {
	techsAll := galiot.TechnologiesWithDSSS()
	gen := rng.New(5)
	capture := channel.AWGN(1<<18, gen)
	for _, n := range []int{1, 2, 3, 4} {
		set := techsAll[:n]
		uni, err := detect.NewUniversal(set, galiot.SampleRate, 0.08)
		if err != nil {
			b.Fatal(err)
		}
		bank := detect.NewMatchedBank(set, galiot.SampleRate, 0.08)
		b.Run("universal-"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = uni.Metric(capture)
			}
		})
		b.Run("matched-"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bank.Metric(capture)
			}
		})
	}
}

// BenchmarkAblationKillFilters compares SIC-only against SIC+kill-filters
// frame recovery on a fixed 3-way collision (DESIGN ablation 3).
func BenchmarkAblationKillFilters(b *testing.B) {
	techs := galiot.Technologies()
	gen := rng.New(6)
	scen, err := sim.GenCollision([]sim.CollisionSpec{
		{Tech: techs[0], SNRdB: 12, PayloadLen: 8},
		{Tech: techs[1], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
		{Tech: techs[2], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.1},
	}, galiot.SampleRate, 4000, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sic", func(b *testing.B) {
		recovered := 0
		for i := 0; i < b.N; i++ {
			out := sim.EvaluateDecode(scen, cancel.NewSIC(techs, galiot.SampleRate))
			recovered = out.Recovered
		}
		b.ReportMetric(float64(recovered), "frames/3")
	})
	b.Run("kill-filters", func(b *testing.B) {
		recovered := 0
		for i := 0; i < b.N; i++ {
			out := sim.EvaluateDecode(scen, cancel.NewDecoder(techs, galiot.SampleRate))
			recovered = out.Recovered
		}
		b.ReportMetric(float64(recovered), "frames/3")
	})
}

// BenchmarkBattery regenerates the Sec. 1 battery-drain experiment
// (retransmission energy with and without collision decoding).
func BenchmarkBattery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Battery(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFrontend regenerates the RTL-SDR impairment ablation
// (coherent vs chunked universal detection under tuner error).
func BenchmarkAblationFrontend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFrontend(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// buildFarmSegments renders a batch of 2-way collision segments for the
// decode-farm benchmarks.
func buildFarmSegments(b *testing.B, n int) []backhaul.Segment {
	b.Helper()
	techs := galiot.Technologies()
	base := rng.New(9)
	segs := make([]backhaul.Segment, 0, n)
	var start int64
	for i := 0; i < n; i++ {
		gen := base.Split(uint64(i))
		scen, err := sim.GenCollision([]sim.CollisionSpec{
			{Tech: techs[i%len(techs)], SNRdB: 12, PayloadLen: 8},
			{Tech: techs[(i+1)%len(techs)], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.1},
		}, galiot.SampleRate, 3000, gen)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, backhaul.Segment{Start: start, SampleRate: galiot.SampleRate, Samples: scen.Capture})
		start += int64(len(scen.Capture))
	}
	return segs
}

// BenchmarkFarmThroughput compares serial segment decoding against the
// decode farm on the same batch. On a multi-core host the 4-worker farm
// clears a multiple of the serial rate (the acceptance bar is 2x with 4
// workers); on one core the two are equivalent, since the farm adds
// scheduling but no parallel silicon. segments/s is the headline metric.
func BenchmarkFarmThroughput(b *testing.B) {
	const batch = 8
	segs := buildFarmSegments(b, batch)
	b.Run("serial", func(b *testing.B) {
		svc := galiot.NewCloud()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, seg := range segs {
				svc.DecodeSegment(seg)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "segments/s")
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("farm-%d", workers), func(b *testing.B) {
			svc := galiot.NewCloud()
			f := svc.StartFarm(galiot.FarmConfig{Workers: workers, QueueDepth: batch})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, seg := range segs {
					wg.Add(1)
					if err := f.Submit(context.Background(), seg, func(farm.Result) { wg.Done() }); err != nil {
						b.Fatal(err)
					}
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "segments/s")
			svc.Close()
		})
	}
}
