package main

import (
	"fmt"
	"math"
)

// captureLen is the capture buffer cmd/galiot-gateway pushes (≈0.26 s of
// air at 1 Msps).
const captureLen = 262144

// emitter is one transmitter of an episode: a technology, its SNR over the
// unit noise floor, how long after the episode's first sample it keys up,
// and its payload length (0: lengths walk 6..14 B with the block index).
type emitter struct {
	tech  string
	snrDB float64
	lag   int
	bytes int
}

// episode is what one block carries: a lone packet or a cross-technology
// collision. SNRs are fixed per episode kind (12–15 dB, so the power order
// SIC follows does not flip between seeds) and payload lengths (6–14 B)
// follow the block index; payload bytes, carrier phases, the noise under the
// packets and where in the block the episode starts are drawn from the seed.
type episode []emitter

// packet is ground truth for one transmitted frame.
type packet struct {
	Tech    string
	Payload []byte
	Block   int
	Offset  int // first sample, from the start of the block
	Length  int // airtime in samples
}

// block is k capture buffers holding exactly one episode.
type block struct {
	captures [][]complex128
	packets  []packet
}

// air is one gateway's seeded input: blocks of equal length cut from a
// shared noise floor.
type air struct {
	perBlock int // captures per block
	blocks   []block
}

func (a *air) blockLen() int { return a.perBlock * captureLen }

func (a *air) packetCount(nblocks int) int {
	n := 0
	for _, b := range a.blocks[:nblocks] {
		n += len(b.packets)
	}
	return n
}

// episodeStart returns where in a block of perBlock captures an episode of
// the given airtime may begin. The stream cuts a segment from maxPacket/2
// before the first detection to 3·maxPacket/2 after the last, holds it back
// while it ends within maxPacket/2 of the buffered samples, and after every
// push drops all but the last 2·maxPacket samples. So the episode must sit
// where its segment starts inside the block (maxPacket/2 ≤ start), is
// complete by some push e of the block (start + airtime + 2·maxPacket ≤
// (e+1)·captureLen), and has lost nothing to the drop after push e-1
// (e·captureLen - 2·maxPacket ≤ start - maxPacket/2). Outside that window
// the stream truncates or splits the segment; README.md, "Findings".
func episodeStart(maxPacket, airtime, perBlock int) (lo, hi int, err error) {
	const margin = 1024
	for e := 0; e < perBlock; e++ {
		lo = max(maxPacket/2, e*captureLen-3*maxPacket/2) + margin
		hi = min((e+1)*captureLen-2*maxPacket-margin, captureLen-pad) - airtime
		if hi > lo {
			return lo, hi, nil
		}
	}
	return 0, 0, fmt.Errorf("benchmark: %d captures cannot isolate an episode of %d samples at maxPacket %d", perBlock, airtime, maxPacket)
}

// pad is the fresh noise drawn on each side of an episode.
const pad = 2048

// noiseFloor draws the capture every block is cut from and screens it: the
// universal detector must stay silent on it, also across the seam where the
// capture follows itself, so every segment the gateway ships comes from an
// episode. A floor that trips the detector (roughly one in a few hundred)
// is redrawn from the next lane of the same seed.
func noiseFloor(techs []technology, g rnd) ([]complex128, error) {
	for try := uint64(0); try < 16; try++ {
		floor := awgn(captureLen, g.split(try))
		quiet, err := quietFloor(techs, floor)
		if err != nil {
			return nil, err
		}
		if quiet {
			return floor, nil
		}
	}
	return nil, fmt.Errorf("benchmark: no quiet noise floor in 16 draws")
}

// makeAir renders nblocks blocks, block i carrying kinds[i mod len(kinds)].
// The same (techs, kinds, seed, lane) gives the same samples.
func makeAir(techs []technology, kinds []episode, nblocks, perBlock int, seed, lane uint64) (*air, error) {
	g := newRnd(seed).split(lane)
	floor, err := noiseFloor(techs, g.split(0xF100))
	if err != nil {
		return nil, err
	}
	byName := map[string]technology{}
	for _, t := range techs {
		byName[techName(t)] = t
	}
	a := &air{perBlock: perBlock, blocks: make([]block, nblocks)}
	maxPacket := maxPacketSamples(techs)
	for i := range a.blocks {
		bg := g.split(uint64(i) + 1)
		kind := kinds[i%len(kinds)]
		var ems []emission
		var packets []packet
		airtime := 0
		for j, e := range kind {
			t, ok := byName[e.tech]
			if !ok {
				return nil, fmt.Errorf("benchmark: episode names %q, not in the technology set", e.tech)
			}
			// Lengths never depend on the seed: two seeds offer the same
			// work and differ in what the work carries.
			n := e.bytes
			if n == 0 {
				n = 6 + (5*i+3*j+int(lane))%9
			}
			payload := make([]byte, n)
			bg.bytes(payload)
			sig, err := modulate(t, payload)
			if err != nil {
				return nil, fmt.Errorf("benchmark: modulate %s: %w", e.tech, err)
			}
			ems = append(ems, emission{samples: sig, offset: pad + e.lag, snrDB: e.snrDB, phase: 2 * math.Pi * bg.float()})
			packets = append(packets, packet{Tech: e.tech, Payload: payload, Block: i, Offset: e.lag, Length: len(sig)})
			if end := e.lag + len(sig); end > airtime {
				airtime = end
			}
		}
		lo, hi, err := episodeStart(maxPacket, airtime, perBlock)
		if err != nil {
			return nil, err
		}
		start := lo + bg.intn(hi-lo)
		for p := range packets {
			packets[p].Offset += start
		}
		first := append([]complex128(nil), floor...)
		copy(first[start-pad:], mixAir(airtime+2*pad, ems, bg.split(0xA1)))
		caps := make([][]complex128, perBlock)
		caps[0] = first
		for c := 1; c < perBlock; c++ {
			caps[c] = floor // shared, never written: the front-end copies what it is given
		}
		a.blocks[i] = block{captures: caps, packets: packets}
	}
	return a, nil
}
