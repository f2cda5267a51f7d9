package experiments

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Battery quantifies the paper's motivating claim (Sec. 1): collisions are
// handled by retransmissions, which drain batteries; collision decoding
// removes most retransmissions. The experiment replays the Fig. 3(c)
// medium-SNR collision workload through the MAC retransmission model twice
// — once with the plain-SIC cloud, once with GalioT's kill filters — and
// reports energy per delivered bit.
func Battery(opt Options) (Table, error) {
	techs := prototypeTechs()
	rounds := opt.trials(2, 6)
	base := rng.New(opt.Seed ^ 0xBA77)
	link := mac.NewLink()

	type variant struct {
		name string
		mk   func() *cancel.Decoder
		rep  mac.Report
	}
	variants := []*variant{
		{name: "plain SIC cloud", mk: func() *cancel.Decoder { return cancel.NewSIC(techs, fs) }},
		{name: "GalioT kill filters", mk: func() *cancel.Decoder { return cancel.NewDecoder(techs, fs) }},
	}
	for round := 0; round < rounds; round++ {
		gen := base.Split(uint64(round))
		episodes := collisionEpisodes(techs, 8, 14, gen)
		for ei, specs := range episodes {
			scen, err := sim.GenCollision(specs, fs, 4000, gen.Split(uint64(ei)))
			if err != nil {
				return Table{}, err
			}
			for _, v := range variants {
				out := sim.EvaluateDecode(scen, v.mk()).Matched
				macGen := gen.Split(uint64(ei) ^ 0xF00)
				for pi, p := range scen.Packets {
					airtime := float64(p.Length) / fs
					v.rep.Add(link.Deliver(out[pi], airtime, len(p.Payload)*8, macGen.Float64))
				}
			}
		}
	}
	t := Table{
		ID:     "battery",
		Title:  "Battery drain from collision retransmissions (paper Sec. 1 motivation)",
		Header: []string{"cloud decoder", "delivery", "retx/frame", "energy/bit (µJ)"},
		Notes: []string{
			"MAC model: up to 3 retransmissions, 90% per-retry success, 40 mW TX + 40 µJ wake cost;",
			"paper: 'collisions are handled using retransmissions, resulting in extensive battery drain'.",
		},
	}
	var perBit []float64
	for _, v := range variants {
		perBit = append(perBit, v.rep.EnergyPerBit())
		t.Rows = append(t.Rows, []string{
			v.name,
			pct(v.rep.DeliveryRatio()),
			f2(v.rep.RetransmissionRate()),
			f2(1e6 * v.rep.EnergyPerBit()),
		})
	}
	if len(perBit) == 2 && perBit[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("energy per delivered bit saved by kill filters: %.1f%%",
			100*(perBit[0]-perBit[1])/perBit[0]))
	}
	return t, nil
}
