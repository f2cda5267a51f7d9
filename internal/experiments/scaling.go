package experiments

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/phy"
	"repro/internal/phy/dbpsk"
	"repro/internal/phy/oqpsk"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Scaling probes the paper's second future-work item: "Test the scaling
// limits of collision-decoding". Collisions of increasing order (2-way to
// 5-way, drawing from all five 1 MHz-capable technologies) are decoded by
// the strict-SIC baseline and by GalioT, at comparable received powers in
// the medium-SNR regime. Recovery degrades with collision order — more
// residual energy survives each imperfect cancellation — and the gap
// between the two decoders widens, since SIC's first-decode failure
// becomes ever more likely as the airspace thickens.
func Scaling(opt Options) (Table, error) {
	techs := []phy.Technology{}
	techs = append(techs, prototypeTechs()...)
	techs = append(techs, oqpsk.Default(), dbpsk.Default())
	rounds := opt.trials(2, 6)
	base := rng.New(opt.Seed ^ 0x5CA1)

	t := Table{
		ID:     "scaling",
		Title:  "Collision-order scaling (paper future work 2: scaling limits of collision decoding)",
		Header: []string{"collision order", "SIC recovery", "GalioT recovery"},
		Notes: []string{
			"episodes at 10-14 dB with powers within ±1.5 dB; participants drawn in order",
			"lora, xbee, zwave, oqpsk, dbpsk.",
		},
	}
	for order := 2; order <= len(techs); order++ {
		var sicRec, cloudRec, total int
		for round := 0; round < rounds; round++ {
			gen := base.Split(uint64(order*100 + round))
			epBase := 10 + 4*gen.Float64()
			specs := make([]sim.CollisionSpec, 0, order)
			for i := 0; i < order; i++ {
				specs = append(specs, sim.CollisionSpec{
					Tech:       techs[i],
					SNRdB:      epBase + (2*gen.Float64()-1)*1.5,
					PayloadLen: 6 + gen.Intn(6),
					OffsetFrac: 0.3 * gen.Float64() * float64(i) / float64(order),
				})
			}
			scen, err := sim.GenCollision(specs, fs, 4000, gen.Split(7))
			if err != nil {
				return Table{}, err
			}
			sicOut := sim.EvaluateDecode(scen, cancel.NewSIC(techs, fs))
			cloudOut := sim.EvaluateDecode(scen, cancel.NewDecoder(techs, fs))
			sicRec += sicOut.Recovered
			cloudRec += cloudOut.Recovered
			total += len(scen.Packets)
		}
		ratio := func(r int) string {
			if total == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%s (%d/%d)", pct(float64(r)/float64(total)), r, total)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d-way", order), ratio(sicRec), ratio(cloudRec)})
	}
	return t, nil
}
