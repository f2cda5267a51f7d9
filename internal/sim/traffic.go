// Package sim provides the experiment harness for the paper reproduction:
// duty-cycled "wake up and transmit" traffic generation with ground truth,
// collision-episode synthesis, and the metrics (detection ratio, frame
// recovery, throughput) that the Sec. 7 figures report.
package sim

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/rng"
)

// Packet is ground truth for one transmitted frame.
type Packet struct {
	Tech    string
	Payload []byte
	Offset  int     // start sample within the capture
	Length  int     // airtime in samples
	SNRdB   float64 // received SNR vs unit noise
}

// Scenario is a rendered capture plus its ground truth.
type Scenario struct {
	Capture    []complex128
	SampleRate float64
	Packets    []Packet
}

// TrafficConfig parameterizes duty-cycled traffic generation.
type TrafficConfig struct {
	Techs      []phy.Technology
	SampleRate float64
	Duration   int     // capture length in samples
	MeanGap    float64 // mean idle gap between a technology's transmissions, seconds (Poisson)
	SNRMin     float64 // per-packet SNR drawn uniformly from [SNRMin, SNRMax]
	SNRMax     float64
	PayloadMin int // payload length drawn uniformly from [PayloadMin, PayloadMax]
	PayloadMax int
}

// Validate fills defaults and checks the configuration.
func (c *TrafficConfig) Validate() error {
	if len(c.Techs) == 0 {
		return fmt.Errorf("sim: no technologies")
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 1e6
	}
	if c.Duration <= 0 {
		c.Duration = 1 << 20
	}
	if c.MeanGap <= 0 {
		c.MeanGap = 0.25
	}
	if c.PayloadMin <= 0 {
		c.PayloadMin = 4
	}
	if c.PayloadMax < c.PayloadMin {
		c.PayloadMax = c.PayloadMin + 12
	}
	if c.SNRMax < c.SNRMin {
		c.SNRMax = c.SNRMin
	}
	return nil
}

// GenTraffic renders a capture with independent Poisson transmitters, one
// per technology — the paper's low-power "wake up and transmit" model,
// which naturally produces cross-technology collisions. The generator is
// fully deterministic given the rng.
func GenTraffic(cfg TrafficConfig, gen *rng.Rand) (Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return Scenario{}, err
	}
	fs := cfg.SampleRate
	var emissions []channel.Emission
	var packets []Packet
	for ti, tech := range cfg.Techs {
		tgen := gen.Split(uint64(ti) + 1)
		// Poisson arrivals: next start = previous end + Exp(meanGap).
		pos := int(tgen.ExpFloat64() * cfg.MeanGap * fs)
		for pos < cfg.Duration {
			n := cfg.PayloadMin
			if cfg.PayloadMax > cfg.PayloadMin {
				n += tgen.Intn(cfg.PayloadMax - cfg.PayloadMin + 1)
			}
			payload := make([]byte, n)
			tgen.Bytes(payload)
			sig, err := tech.Modulate(payload, fs)
			if err != nil {
				return Scenario{}, fmt.Errorf("sim: %s: %w", tech.Name(), err)
			}
			if pos+len(sig) > cfg.Duration {
				break
			}
			snr := cfg.SNRMin + tgen.Float64()*(cfg.SNRMax-cfg.SNRMin)
			emissions = append(emissions, channel.Emission{
				Samples: sig,
				Offset:  pos,
				SNRdB:   snr,
				Phase:   2 * 3.141592653589793 * tgen.Float64(),
			})
			packets = append(packets, Packet{
				Tech:    tech.Name(),
				Payload: payload,
				Offset:  pos,
				Length:  len(sig),
				SNRdB:   snr,
			})
			pos += len(sig) + int(tgen.ExpFloat64()*cfg.MeanGap*fs)
		}
	}
	capture := channel.Mix(cfg.Duration, emissions, gen.Split(0xDEAD), fs)
	return Scenario{Capture: capture, SampleRate: fs, Packets: packets}, nil
}

// CollisionSpec describes one participant in a forced collision episode.
type CollisionSpec struct {
	Tech       phy.Technology
	SNRdB      float64
	PayloadLen int
	OffsetFrac float64 // start position as a fraction of the longest frame [0, 0.9]
}

// GenCollision renders one collision episode: every participant's frame
// overlaps the first one in time. The capture is padded by margin samples
// on each side.
func GenCollision(specs []CollisionSpec, fs float64, margin int, gen *rng.Rand) (Scenario, error) {
	if len(specs) == 0 {
		return Scenario{}, fmt.Errorf("sim: empty collision spec")
	}
	if margin < 0 {
		margin = 0
	}
	type rendered struct {
		sig     []complex128
		payload []byte
	}
	longest := 0
	parts := make([]rendered, len(specs))
	for i, sp := range specs {
		n := sp.PayloadLen
		if n <= 0 {
			n = 8
		}
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := sp.Tech.Modulate(payload, fs)
		if err != nil {
			return Scenario{}, fmt.Errorf("sim: %s: %w", sp.Tech.Name(), err)
		}
		parts[i] = rendered{sig: sig, payload: payload}
		if len(sig) > longest {
			longest = len(sig)
		}
	}
	var emissions []channel.Emission
	var packets []Packet
	total := margin
	for i, sp := range specs {
		frac := sp.OffsetFrac
		if frac < 0 {
			frac = 0
		}
		if frac > 0.9 {
			frac = 0.9
		}
		off := margin + int(frac*float64(longest))
		emissions = append(emissions, channel.Emission{
			Samples: parts[i].sig,
			Offset:  off,
			SNRdB:   sp.SNRdB,
			Phase:   2 * 3.141592653589793 * gen.Float64(),
		})
		packets = append(packets, Packet{
			Tech:    sp.Tech.Name(),
			Payload: parts[i].payload,
			Offset:  off,
			Length:  len(parts[i].sig),
			SNRdB:   sp.SNRdB,
		})
		if end := off + len(parts[i].sig); end > total {
			total = end
		}
	}
	total += margin
	capture := channel.Mix(total, emissions, gen.Split(0xBEEF), fs)
	return Scenario{Capture: capture, SampleRate: fs, Packets: packets}, nil
}

// Collides reports whether packet i overlaps any other packet in time.
func (s Scenario) Collides(i int) bool {
	a := s.Packets[i]
	for j, b := range s.Packets {
		if j == i {
			continue
		}
		if a.Offset < b.Offset+b.Length && b.Offset < a.Offset+a.Length {
			return true
		}
	}
	return false
}

// AirtimeSeconds returns the scenario duration in seconds.
func (s Scenario) AirtimeSeconds() float64 {
	return float64(len(s.Capture)) / s.SampleRate
}
