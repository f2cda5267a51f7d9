package experiments

import (
	"fmt"
	"time"

	"repro/internal/edge"
	"repro/internal/rng"
	"repro/internal/sim"
)

// EdgePolicy exercises the Sec. 4/6 computation-placement question
// ("Compute, Compress or Ship?") over a simulated deployment: segments
// from duty-cycled traffic are placed by three policies — cloud-only,
// single edge node, and the SLA-aware scheduler over two edge nodes plus
// the cloud — and scored on SLA compliance and how much work the cloud
// (and thus the backhaul) had to carry.
func EdgePolicy(opt Options) (Table, error) {
	techs := prototypeTechs()
	gen := rng.New(opt.Seed ^ 0xED6E)
	scen, err := sim.GenTraffic(sim.TrafficConfig{
		Techs:      techs,
		SampleRate: fs,
		Duration:   1 << 20,
		MeanGap:    0.05,
		SNRMin:     8,
		SNRMax:     15,
	}, gen)
	if err != nil {
		return Table{}, err
	}
	// One "segment" per ground-truth packet (2× its airtime, as the
	// gateway ships), with its technology as the placement candidate;
	// collided packets candidate-list every overlapping technology.
	type segment struct {
		samples    int
		candidates []string
	}
	var segments []segment
	for i, p := range scen.Packets {
		cands := []string{p.Tech}
		if scen.Collides(i) {
			for j, q := range scen.Packets {
				if j != i && p.Offset < q.Offset+q.Length && q.Offset < p.Offset+p.Length && q.Tech != p.Tech {
					cands = append(cands, q.Tech)
				}
			}
		}
		segments = append(segments, segment{samples: 2 * p.Length, candidates: cands})
	}

	// Z-Wave commands are latency-sensitive (a wall switch must actuate);
	// LoRa telemetry is not.
	slas := map[string]time.Duration{
		"zwave": 150 * time.Millisecond,
		"xbee":  300 * time.Millisecond,
	}
	mkNodes := func() (edges []*edge.Node, cloud *edge.Node) {
		cloud = &edge.Node{Name: "cloud", RTT: 40 * time.Millisecond, ComputeRate: 2e8, Cloud: true}
		edges = []*edge.Node{
			{Name: "pi-1", RTT: 2 * time.Millisecond, ComputeRate: 4e6},
			{Name: "pi-2", RTT: 2 * time.Millisecond, ComputeRate: 4e6},
		}
		return
	}

	type policy struct {
		name string
		mk   func() *edge.Scheduler
	}
	policies := []policy{
		{"cloud only", func() *edge.Scheduler {
			_, cloud := mkNodes()
			s := edge.NewScheduler(cloud)
			s.SLAs = slas
			return s
		}},
		{"one edge node + cloud", func() *edge.Scheduler {
			edges, cloud := mkNodes()
			s := edge.NewScheduler(cloud, edges[0])
			s.SLAs = slas
			return s
		}},
		{"two edge nodes + cloud (SLA-aware)", func() *edge.Scheduler {
			edges, cloud := mkNodes()
			s := edge.NewScheduler(cloud, edges...)
			s.SLAs = slas
			return s
		}},
	}

	t := Table{
		ID:     "edge-policy",
		Title:  "Edge vs cloud placement with SLAs and load balancing (Sec. 4/6 future work)",
		Header: []string{"policy", "segments", "met SLA", "placed at edge", "cloud samples"},
		Notes: []string{
			"SLAs: zwave 150 ms, xbee 300 ms; edge nodes are Raspberry-Pi-class (4 MS/s decode),",
			"the cloud is 50x faster but 40 ms away; collisions always go to the cloud (Sec. 4).",
		},
	}
	for _, pol := range policies {
		s := pol.mk()
		met, atEdge, cloudSamples := 0, 0, 0
		for _, seg := range segments {
			p := s.Place(seg.samples, seg.candidates)
			if p.Node == nil {
				continue
			}
			if p.MeetsSLA {
				met++
			}
			if p.Node.Cloud {
				cloudSamples += seg.samples
			} else {
				atEdge++
			}
			// work completes before the next placement (traffic is sparse
			// relative to compute) except a residual that models queueing
			s.Complete(p.Node, seg.samples*9/10)
		}
		t.Rows = append(t.Rows, []string{
			pol.name,
			fmt.Sprintf("%d", len(segments)),
			pct(float64(met) / float64(max(len(segments), 1))),
			fmt.Sprintf("%d", atEdge),
			fmt.Sprintf("%d", cloudSamples),
		})
	}
	return t, nil
}
