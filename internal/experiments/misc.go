package experiments

import (
	"fmt"
	"io"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/detect"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/phy"
	"repro/internal/phy/dbpsk"
	"repro/internal/phy/oqpsk"
	"repro/internal/phy/xbee"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Table1Runner regenerates the paper's Table 1: common IoT technologies
// with their modulation and preamble information, from the implemented
// technologies plus the cataloged extras.
func Table1Runner(Options) (Table, error) {
	t := Table{
		ID:     "table1",
		Title:  "Common IoT technologies with modulation and preamble information (paper Table 1)",
		Header: []string{"Technology", "Modulation", "Sync", "Preamble"},
		Notes:  []string{"rows marked * are implemented PHYs in this repository; others are cataloged as in the paper."},
	}
	techs := append(prototypeTechs(), oqpsk.Default(), dbpsk.Default())
	seen := map[string]bool{}
	for _, tech := range techs {
		info := tech.Info()
		seen[info.Name] = true
		t.Rows = append(t.Rows, []string{info.Name + " *", info.Modulation, info.Sync, info.Preamble})
	}
	for _, info := range phy.Extras() {
		if !seen[info.Name] {
			t.Rows = append(t.Rows, []string{info.Name, info.Modulation, info.Sync, info.Preamble})
		}
	}
	return t, nil
}

// Cost reproduces the paper's cost claim: the $60 RTL-SDR + Raspberry Pi
// gateway versus commercial multi-technology gateways. The bill of
// materials is static data from the paper era (2018 street prices).
func Cost(Options) (Table, error) {
	return Table{
		ID:     "cost",
		Title:  "Gateway bill of materials vs commercial gateways (paper Sec. 1/7)",
		Header: []string{"item", "price (USD)"},
		Rows: [][]string{
			{"RTL-SDR dongle (R820T2)", "25"},
			{"Raspberry Pi 3 Model B", "35"},
			{"GalioT prototype total", "60"},
			{"", ""},
			{"MultiTech MultiConnect Conduit", "~500"},
			{"Samsung SmartThings-class hub + per-radio NICs", "~200-600"},
		},
		Notes: []string{"paper: 'an order-of-magnitude cheaper compared to today's commercial gateways'."},
	}, nil
}

// shipment is what one gateway pass over a capture put on the backhaul.
type shipment struct {
	segments  int // shipped to the cloud
	resolved  int // resolved at the edge instead
	samples   int // I/Q samples inside the shipped segments
	wireBytes int // as Conn.SendSegmentSeq accounts them
}

// shipOver runs the real gateway over one capture and ships what it does
// not resolve over w the way a session does, so the wire cost is the one
// number Conn.SendSegmentSeq reports rather than a framing constant
// re-derived here.
func shipOver(capture []complex128, edgeDecode bool, w io.Writer) (shipment, error) {
	gw, err := gateway.New(gateway.Config{Techs: prototypeTechs(), Frontend: frontend.Ideal(fs), EdgeDecode: edgeDecode})
	if err != nil {
		return shipment{}, err
	}
	shipped := append(gw.Process(capture).Shipped, gw.Flush().Shipped...)
	conn := backhaul.NewConn(struct {
		io.Reader
		io.Writer
	}{nil, w})
	out := shipment{segments: len(shipped), resolved: gw.Stats().SegmentsResolved}
	for seq, seg := range shipped {
		n, err := conn.SendSegmentSeq(uint64(seq), seg)
		if err != nil {
			return shipment{}, err
		}
		out.samples += len(seg.Samples)
		out.wireBytes += n
	}
	return out, nil
}

// Backhaul answers Sec. 4/6's "Compute, Compress or Ship?" for one second
// of duty-cycled traffic: raw I/Q streaming cost versus detection-gated
// shipping versus the compressed wire format, and what the gateway's live
// edge policy (cancel.Decoder.EdgeDecode behind Config.EdgeDecode) takes
// off the wire by resolving lone packets locally.
func Backhaul(opt Options) (Table, error) {
	gen := rng.New(opt.Seed ^ 0xBA)
	scen, err := sim.GenTraffic(sim.TrafficConfig{
		Techs:      prototypeTechs(),
		SampleRate: fs,
		Duration:   1 << 20,
		MeanGap:    0.1,
		SNRMin:     8,
		SNRMax:     15,
	}, gen)
	if err != nil {
		return Table{}, err
	}
	ship, err := shipOver(scen.Capture, false, io.Discard)
	if err != nil {
		return Table{}, err
	}
	edge, err := shipOver(scen.Capture, true, io.Discard)
	if err != nil {
		return Table{}, err
	}
	rawBytes := 2 * len(scen.Capture) // cu8 stream
	secs := float64(len(scen.Capture)) / fs
	row := func(name string, bytes int) []string {
		return []string{name, fmt.Sprintf("%d", bytes), fmt.Sprintf("%.2f Mbps", 8*float64(bytes)/secs/1e6), pct(float64(bytes) / float64(rawBytes))}
	}
	return Table{
		ID:     "backhaul",
		Title:  "Compute, Compress or Ship? Backhaul cost per strategy (Sec. 4/6)",
		Header: []string{"strategy", "bytes/s", "rate", "vs raw"},
		Rows: [][]string{
			row("stream raw I/Q (cu8)", rawBytes),
			row("ship detected segments (cu8)", 2*ship.samples),
			row("ship detected + DEFLATE", ship.wireBytes),
			row("edge-resolve lone packets, ship the rest + DEFLATE", edge.wireBytes),
		},
		Notes: []string{
			fmt.Sprintf("%d packets on the air, %d segments shipped", len(scen.Packets), ship.segments),
			fmt.Sprintf("with edge decode: %d segments resolved at the edge, %d shipped", edge.resolved, edge.segments),
		},
	}, nil
}

// AblationPreamble measures how the universal preamble scales with the
// number of coalesced technologies versus the matched-filter bank: the
// correlation work stays constant for the universal template while the
// bank grows linearly (the paper's complexity argument), at a measured
// detection-accuracy gap.
func AblationPreamble(opt Options) (Table, error) {
	all := prototypeTechs()
	// grow the set: 3 prototypes plus a BLE-like fourth GFSK PHY that
	// coalesces with xbee (same modulation parameters, shorter preamble)
	bleLike, err := xbee.New(xbee.Config{PreambleLen: 2})
	if err != nil {
		return Table{}, err
	}
	sets := [][]phy.Technology{
		all[:1], all[:2], all[:3],
		append(append([]phy.Technology{}, all...), bleLike),
	}
	t := Table{
		ID:     "ablation-preamble",
		Title:  "Universal preamble scaling vs technology count (DESIGN ablation 1)",
		Header: []string{"#techs", "universal templates", "matched templates", "universal groups"},
		Notes:  []string{"detection work ∝ number of templates correlated; the universal preamble stays at 1."},
	}
	for _, set := range sets {
		u, err := detect.BuildUniversal(set, fs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", len(set)),
			"1",
			fmt.Sprintf("%d", len(set)),
			fmt.Sprintf("%d", len(u.Groups)),
		})
	}
	return t, nil
}

// AblationKill disables each kill filter in turn on a three-way collision
// workload, showing the contribution of every filter class (DESIGN
// ablation 3).
func AblationKill(opt Options) (Table, error) {
	techs := prototypeTechs()
	rounds := opt.trials(2, 6)
	base := rng.New(opt.Seed ^ 0xAB)

	withDisabled := func(classes ...phy.Class) func() *cancel.Decoder {
		return func() *cancel.Decoder {
			d := cancel.NewDecoder(techs, fs)
			d.DisabledFilters = map[phy.Class]bool{}
			for _, c := range classes {
				d.DisabledFilters[c] = true
			}
			return d
		}
	}
	variants := []struct {
		name string
		mk   func() *cancel.Decoder
	}{
		{"SIC only (no filters)", func() *cancel.Decoder { return cancel.NewSIC(techs, fs) }},
		{"SIC + all kill filters", func() *cancel.Decoder { return cancel.NewDecoder(techs, fs) }},
		{"without KILL-CSS", withDisabled(phy.ClassCSS)},
		{"without KILL-FREQUENCY", withDisabled(phy.ClassFSK, phy.ClassPSK)},
	}
	t := Table{
		ID:     "ablation-kill",
		Title:  "Kill-filter ablation on 3-way collisions (DESIGN ablation 3)",
		Header: []string{"decoder", "frames recovered", "of total", "recovery"},
		Notes: []string{
			"at moderate SNR the filter set is redundant for 3-way mixes: once any one interferer",
			"class can be killed, SIC's subtract-and-retry recovers the rest — the SIC-only row",
			"isolates the filters' joint contribution.",
		},
	}
	for _, v := range variants {
		recovered, total := 0, 0
		for round := 0; round < rounds; round++ {
			gen := base.Split(uint64(round))
			specs := []sim.CollisionSpec{
				{Tech: techs[0], SNRdB: 12, PayloadLen: 8},
				{Tech: techs[1], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
				{Tech: techs[2], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.1},
			}
			scen, err := sim.GenCollision(specs, fs, 4000, gen)
			if err != nil {
				return Table{}, err
			}
			out := sim.EvaluateDecode(scen, v.mk())
			recovered += out.Recovered
			total += out.Total
		}
		ratio := 0.0
		if total > 0 {
			ratio = float64(recovered) / float64(total)
		}
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%d", recovered), fmt.Sprintf("%d", total), pct(ratio)})
	}
	return t, nil
}
