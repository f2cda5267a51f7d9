package experiments

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// snrRegime is one x-axis group of Fig. 3(c).
type snrRegime struct {
	label    string
	min, max float64
}

var fig3cRegimes = []snrRegime{
	{"Low", 2, 6},
	{"Medium", 8, 14},
	{"High", 18, 24},
}

// Fig3cSeries holds throughput (bps) per regime for the SIC baseline and
// for GalioT's kill-filter decoder.
type Fig3cSeries struct {
	Regimes []string
	SIC     []float64
	GalioT  []float64
	// GainPct[i] = 100 * (GalioT-SIC)/SIC, +Inf-safe
	GainPct []float64
}

// collisionEpisodes enumerates the collision mixes exercised per regime.
// The emphasis mirrors the paper's stress case — transmissions that overlap
// completely in both time and frequency (LoRa and XBee share the capture
// center; Z-Wave joins from its EU-band-plan offset in the three-way
// mixes) — with comparable received powers, the regime where power-ordered
// SIC breaks down. Two spectrally separated pairs are kept as controls.
func collisionEpisodes(techs []phy.Technology, regimeMin, regimeMax float64, gen *rng.Rand) [][]sim.CollisionSpec {
	// One base SNR per episode drawn from the regime; participants land
	// within ±1.5 dB of it — the "comparable signal strengths" condition
	// under which the paper says SIC breaks down (Sec. 5, citing [28]).
	epBase := regimeMin + gen.Float64()*(regimeMax-regimeMin)
	draw := func() float64 { return epBase + (2*gen.Float64()-1)*1.5 }
	pl := func() int { return 8 + gen.Intn(8) }
	lora, xbee, zwave := techs[0], techs[1], techs[2]
	threeWay := func(f1, f2 float64) []sim.CollisionSpec {
		return []sim.CollisionSpec{
			{Tech: lora, SNRdB: draw(), PayloadLen: pl()},
			{Tech: xbee, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: f1},
			{Tech: zwave, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: f2},
		}
	}
	return [][]sim.CollisionSpec{
		// full time+frequency overlap: LoRa × XBee, co-channel
		{
			{Tech: lora, SNRdB: draw(), PayloadLen: pl()},
			{Tech: xbee, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: 0.1 * gen.Float64()},
		},
		{
			{Tech: lora, SNRdB: draw(), PayloadLen: pl()},
			{Tech: xbee, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: 0.2 + 0.2*gen.Float64()},
		},
		// three-way mixes (two draws)
		threeWay(0.05, 0.15),
		threeWay(0.1*gen.Float64(), 0.3*gen.Float64()),
		// spectrally separated controls
		{
			{Tech: xbee, SNRdB: draw(), PayloadLen: pl()},
			{Tech: zwave, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: 0.1 * gen.Float64()},
		},
		{
			{Tech: lora, SNRdB: draw(), PayloadLen: pl()},
			{Tech: zwave, SNRdB: draw(), PayloadLen: pl(), OffsetFrac: 0.1 * gen.Float64()},
		},
	}
}

// RunFig3c executes the collision-decoding sweep of Fig. 3(c): collision
// episodes across three SNR regimes, decoded by the strict-SIC baseline and
// by GalioT's CloudDecode (SIC + kill filters), reporting recovered-payload
// throughput.
func RunFig3c(opt Options) (Fig3cSeries, error) {
	techs := prototypeTechs()
	rounds := opt.trials(1, 4)
	series := Fig3cSeries{}
	base := rng.New(opt.Seed ^ 0x3c)
	for ri, regime := range fig3cRegimes {
		var sicBits, cloudBits float64
		var sicSecs, cloudSecs float64
		for round := 0; round < rounds; round++ {
			gen := base.Split(uint64(ri*1000 + round))
			episodes := collisionEpisodes(techs, regime.min, regime.max, gen)
			for ei, specs := range episodes {
				scen, err := sim.GenCollision(specs, fs, 4000, gen.Split(uint64(ei)))
				if err != nil {
					return Fig3cSeries{}, err
				}
				sicOut := sim.EvaluateDecode(scen, cancel.NewSIC(techs, fs))
				cloudOut := sim.EvaluateDecode(scen, cancel.NewDecoder(techs, fs))
				sicBits += float64(sicOut.Bits)
				cloudBits += float64(cloudOut.Bits)
				sicSecs += sicOut.Seconds
				cloudSecs += cloudOut.Seconds
			}
		}
		sicT, cloudT := 0.0, 0.0
		if sicSecs > 0 {
			sicT = sicBits / sicSecs
		}
		if cloudSecs > 0 {
			cloudT = cloudBits / cloudSecs
		}
		gain := 0.0
		if sicT > 0 {
			gain = 100 * (cloudT - sicT) / sicT
		} else if cloudT > 0 {
			gain = -1 // sentinel for infinite gain
		}
		series.Regimes = append(series.Regimes, regime.label)
		series.SIC = append(series.SIC, sicT)
		series.GalioT = append(series.GalioT, cloudT)
		series.GainPct = append(series.GainPct, gain)
	}
	return series, nil
}

func gainString(g float64) string {
	if g < 0 {
		return "inf (SIC decoded nothing)"
	}
	return fmt.Sprintf("+%.1f%%", g)
}

// Fig3c renders the Fig. 3(c) table.
func Fig3c(opt Options) (Table, error) {
	s, err := RunFig3c(opt)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "fig3c",
		Title:  "Collision-decoding throughput vs SNR regime (paper Fig. 3c)",
		Header: []string{"SNR regime", "SIC (bps)", "GalioT kill filters (bps)", "gain"},
		Notes: []string{
			"paper shape: kill filters beat plain SIC in every regime; gains are largest at high SNR",
			"(+818.36% high, +532.4% low in the paper's testbed).",
		},
	}
	for i := range s.Regimes {
		t.Rows = append(t.Rows, []string{s.Regimes[i], f1(s.SIC[i]), f1(s.GalioT[i]), gainString(s.GainPct[i])})
	}
	return t, nil
}

// HeadlineThroughput reproduces the paper's headline collision-decoding
// claims: the average throughput multiple of GalioT over SIC, and the
// per-regime gains.
func HeadlineThroughput(opt Options) (Table, error) {
	s, err := RunFig3c(opt)
	if err != nil {
		return Table{}, err
	}
	var sicSum, cloudSum float64
	for i := range s.Regimes {
		sicSum += s.SIC[i]
		cloudSum += s.GalioT[i]
	}
	mult := "inf"
	if sicSum > 0 {
		mult = fmt.Sprintf("%.2fx", cloudSum/sicSum)
	}
	rows := [][]string{
		{"average throughput vs SIC", "7.46x (745.96%)", mult},
	}
	for i, label := range s.Regimes {
		paper := ""
		switch label {
		case "Low":
			paper = "+532.4%"
		case "High":
			paper = "+818.36%"
		}
		rows = append(rows, []string{fmt.Sprintf("gain in %s SNR", label), paper, gainString(s.GainPct[i])})
	}
	return Table{
		ID:     "headline-throughput",
		Title:  "Headline collision-decoding claims (paper Sec. 1 / Sec. 7)",
		Header: []string{"metric", "paper", "measured"},
		Rows:   rows,
		Notes:  []string{"strict power-ordered SIC baseline per the paper's reference [28] (Weber et al.)."},
	}, nil
}
