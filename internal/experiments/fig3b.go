package experiments

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
	"repro/internal/sim"
)

// prototypeTechs returns the paper's three prototype technologies.
func prototypeTechs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

// snrBucket is one x-axis group of Fig. 3(b).
type snrBucket struct {
	label    string
	min, max float64
}

var fig3bBuckets = []snrBucket{
	{"-30dB to -20dB", -30, -20},
	{"-20dB to -10dB", -20, -10},
	{"-10dB to 0dB", -10, 0},
	{"0dB to 10dB", 0, 10},
	{"10dB to 20dB", 10, 20},
}

// Fig3bSeries holds the per-detector detection ratios per SNR bucket, for
// programmatic consumers (tests, benches, EXPERIMENTS.md).
type Fig3bSeries struct {
	Buckets   []string
	Energy    []float64
	Universal []float64
	Matched   []float64
}

// RunFig3b executes the packet-detection sweep of Fig. 3(b): duty-cycled
// traffic of the three prototype technologies (including collisions) under
// AWGN, with per-packet SNR drawn from each bucket, scored for the energy
// baseline, the universal-preamble detector and the per-technology matched
// bank ("optimal").
func RunFig3b(opt Options) (Fig3bSeries, error) {
	techs := prototypeTechs()
	maxPacket := sim.MaxPacketSamples(techs, fs)
	uni, err := detect.NewUniversal(techs, fs, 0.055)
	if err != nil {
		return Fig3bSeries{}, err
	}
	bank := detect.NewMatchedBank(techs, fs, 0.055)
	energy := detect.NewEnergy(1024, 6)

	trials := opt.trials(2, 6)
	series := Fig3bSeries{}
	base := rng.New(opt.Seed ^ 0x3b)
	for bi, bucket := range fig3bBuckets {
		var detE, detU, detM, total int
		for trial := 0; trial < trials; trial++ {
			gen := base.Split(uint64(bi*100 + trial))
			scen, err := sim.GenTraffic(sim.TrafficConfig{
				Techs:      techs,
				SampleRate: fs,
				Duration:   1 << 19,
				MeanGap:    0.05,
				SNRMin:     bucket.min,
				SNRMax:     bucket.max,
				PayloadMin: 4,
				PayloadMax: 16,
			}, gen)
			if err != nil {
				return Fig3bSeries{}, err
			}
			total += len(scen.Packets)
			detE += sim.EvaluateDetection(scen, energy, maxPacket).Detected
			detU += sim.EvaluateDetection(scen, uni, maxPacket).Detected
			detM += sim.EvaluateDetection(scen, bank, maxPacket).Detected
		}
		ratio := func(d int) float64 {
			if total == 0 {
				return 0
			}
			return float64(d) / float64(total)
		}
		series.Buckets = append(series.Buckets, bucket.label)
		series.Energy = append(series.Energy, ratio(detE))
		series.Universal = append(series.Universal, ratio(detU))
		series.Matched = append(series.Matched, ratio(detM))
	}
	return series, nil
}

// Fig3b renders the Fig. 3(b) table.
func Fig3b(opt Options) (Table, error) {
	s, err := RunFig3b(opt)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "fig3b",
		Title:  "Ratio of packets detected vs SNR (paper Fig. 3b)",
		Header: []string{"SNR range", "energy", "universal preamble", "optimal (matched bank)"},
		Notes: []string{
			"paper shape: energy collapses below 0 dB (84% -> 0.04%); universal preamble tracks the",
			"matched bank with a small gap and keeps detecting at -30 dB (paper reports 62%).",
		},
	}
	for i := range s.Buckets {
		t.Rows = append(t.Rows, []string{s.Buckets[i], pct(s.Energy[i]), pct(s.Universal[i]), pct(s.Matched[i])})
	}
	return t, nil
}

// HeadlineDetect reproduces the paper's headline detection claims: the
// improvement of the universal preamble over energy detection below
// -10 dB, and the detection level retained in the lowest bucket.
func HeadlineDetect(opt Options) (Table, error) {
	s, err := RunFig3b(opt)
	if err != nil {
		return Table{}, err
	}
	// buckets 0 and 1 are below -10 dB
	var eSum, uSum float64
	for i := 0; i < 2 && i < len(s.Buckets); i++ {
		eSum += s.Energy[i]
		uSum += s.Universal[i]
	}
	gain := "inf"
	if eSum > 0 {
		gain = fmt.Sprintf("%.1f%%", 100*(uSum-eSum)/eSum)
	}
	t := Table{
		ID:     "headline-detect",
		Title:  "Headline detection claims (paper Sec. 1 / Sec. 7)",
		Header: []string{"metric", "paper", "measured"},
		Rows: [][]string{
			{"universal vs energy below -10 dB", "+50.89% packets", fmt.Sprintf("universal %s vs energy %s (gain %s)", pct(uSum/2), pct(eSum/2), gain)},
			{"universal detection in lowest bucket", "62% at -30 dB", pct(s.Universal[0])},
			{"energy detection above 0 dB", "84% total", pct((s.Energy[3] + s.Energy[4]) / 2)},
			{"energy detection below 0 dB", "down to 0.04%", pct((s.Energy[0] + s.Energy[1] + s.Energy[2]) / 3)},
		},
		Notes: []string{"paper's absolute values come from RTL-SDR captures; shape comparison is the target."},
	}
	return t, nil
}
