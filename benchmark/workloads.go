package main

import (
	"math"
	"time"
)

// workload is one set of inputs and the deployment they run through.
type workload struct {
	name string
	why  string

	techs      []string // members of the prototype technology set
	edgeDecode bool
	// durable selects the second deployment shape: two gateways in
	// RunResilient with a write-ahead log, over loopback TCP into a
	// two-shard fleet with one farm worker per shard. Otherwise one gateway
	// in Run over a pipe into a cloud that decodes inline.
	durable bool

	perBlock int       // capture buffers per block
	kinds    []episode // block i carries kinds[i mod len(kinds)]

	// cycleSeconds is what one closed-loop pass over kinds (on every
	// gateway) took on the reference box; it only sizes the capacity phase
	// from -seconds and never enters a metric.
	cycleSeconds float64
	// period is the paced phase's schedule: one block per period per
	// gateway. It is a constant of the workload, never derived at run time,
	// and sits near 2/3 utilisation of the reference box.
	period time.Duration
	// traceCycles is how many passes over kinds the traced replay covers.
	traceCycles int
}

// Share of -seconds each phase is sized to; the rest absorbs the tail of
// the paced phase (the last block's decode) and rounding to whole cycles.
const (
	capacityShare = 0.4
	pacedShare    = 0.5
)

// capacityBlocks is the closed-loop phase's fixed work: whole passes over
// the episode kinds, so every run of one -seconds sees the same mix.
func (w *workload) capacityBlocks(seconds float64) int {
	cycles := int(math.Round(seconds * capacityShare / w.cycleSeconds))
	if cycles < 1 {
		cycles = 1
	}
	return cycles * len(w.kinds)
}

func (w *workload) pacedBlocks(seconds float64) int {
	n := int(seconds * pacedShare / w.period.Seconds())
	if n < 1 {
		n = 1
	}
	return n
}

// Episode kinds. A collision's emitters carry distinct SNRs between 12 and
// 15 dB, at lags on which Algorithm 1 takes the same path on (nearly) every
// seed tried; see README.md, "Input model".
var (
	loneXBee  = episode{{tech: "xbee", snrDB: 13.5}}
	loneZWave = episode{{tech: "zwave", snrDB: 13.5}}
	xbeeZWave = episode{{tech: "xbee", snrDB: 15}, {tech: "zwave", snrDB: 12, lag: 2000}}
	zwaveXBee = episode{{tech: "zwave", snrDB: 15}, {tech: "xbee", snrDB: 12, lag: 2000}}
	// The X-Bee burst is 14 B so that it covers the LoRa preamble: that is
	// what keeps LoRa from decoding before its interferers are killed.
	threeWay = episode{{tech: "lora", snrDB: 15, bytes: 10}, {tech: "xbee", snrDB: 14, lag: 3000, bytes: 14}, {tech: "zwave", snrDB: 12, lag: 6000, bytes: 10}}
	loraXBee = episode{{tech: "lora", snrDB: 15, bytes: 10}, {tech: "xbee", snrDB: 14, lag: 3000, bytes: 14}}
)

var workloads = []*workload{
	{
		name:  "quiet_air",
		why:   "mostly noise, lone packets resolve at the edge: detect is most of the gateway thread, the cloud nearly idle - the paper's real-time headroom",
		techs: []string{"xbee", "zwave"}, edgeDecode: true,
		perBlock: 8, kinds: []episode{xbeeZWave, loneXBee, zwaveXBee, loneZWave},
		cycleSeconds: 3, period: 1200 * time.Millisecond, traceCycles: 2,
	},
	{
		name:  "collision_storm",
		why:   "back-to-back 3- and 2-way LoRa collisions: SIC rounds, kill filters and Bluestein FFTs dominate, detection is small, edge decode is wasted",
		techs: []string{"lora", "xbee", "zwave"}, edgeDecode: true,
		perBlock: 2, kinds: []episode{threeWay, loraXBee},
		cycleSeconds: 10.2, period: 6 * time.Second, traceCycles: 1,
	},
	{
		name:  "durable_fanin",
		why:   "same layers, other shape: two RunResilient gateways journal to a WAL and ship over TCP into a sharded fleet with concurrent farm workers",
		techs: []string{"xbee", "zwave"}, durable: true,
		perBlock: 1, kinds: []episode{xbeeZWave, loneXBee, zwaveXBee, loneZWave},
		cycleSeconds: 1.85, period: 1250 * time.Millisecond, traceCycles: 1,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
