package cancel

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

// oldEdgeRule is the two-pass rule EdgeDecode replaced, kept as its
// reference oracle: a one-round strict-SIC decode (classify, demodulate the
// strongest candidate, re-modulate and subtract it from a clone), then a
// second Classify over the same samples to see whether any other technology
// scores above 0.15. checked=false is the spool-overflow drop path's form,
// which never ran the second pass.
func oldEdgeRule(techs []phy.Technology, rx []complex128, checked bool) *phy.Frame {
	d := NewSIC(techs, fs)
	d.MaxRounds = 1
	frames, _ := d.Decode(rx)
	if len(frames) != 1 || !frames[0].CRCOK {
		return nil
	}
	if checked {
		for _, c := range d.Classify(rx) {
			if c.Tech.Name() != frames[0].Tech && c.Score > 0.15 {
				return nil
			}
		}
	}
	return frames[0]
}

// demodCounter counts Demodulate calls across a wrapped technology set.
type demodCounter struct {
	phy.Technology
	n *int
}

func (c demodCounter) Demodulate(rx []complex128, sampleRate float64) (*phy.Frame, error) {
	*c.n++
	return c.Technology.Demodulate(rx, sampleRate)
}

func sameFrame(a, b *phy.Frame) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Tech == b.Tech && a.Offset == b.Offset && a.CRCOK == b.CRCOK && bytes.Equal(a.Payload, b.Payload)
}

func TestEdgeDecodeMatchesTwoPassOracle(t *testing.T) {
	lr, xb, zw := lora.Default(), xbee.Default(), zwave.Default()
	yes, no := true, false
	techs := []phy.Technology{lr, xb, zw}
	type burst struct {
		tech   phy.Technology
		offset int
		snr    float64
	}
	cases := []struct {
		name   string
		bursts []burst
		n      int // capture length when there is no burst to size it by
		// resolve is what the policy must decide, independent of the oracle;
		// nil leaves the verdict to the oracle alone.
		resolve *bool
	}{
		{name: "lone xbee", bursts: []burst{{xb, 8000, 15}}, resolve: &yes},
		{name: "lone zwave", bursts: []burst{{zw, 8000, 15}}, resolve: &yes},
		// LoRa's payload chirps correlate with the X-Bee preamble at
		// 0.15-0.17, right on collisionScore, so whether a lone LoRa frame
		// resolves depends on its payload (both rules agree either way).
		{name: "lone lora", bursts: []burst{{lr, 8000, 12}}},
		{name: "xbee+zwave", bursts: []burst{{xb, 8000, 12}, {zw, 9500, 12}}, resolve: &no},
		{name: "lora+xbee", bursts: []burst{{lr, 8000, 10}, {xb, 12000, 10}}, resolve: &no},
		{name: "3-way", bursts: []burst{{lr, 8000, 12}, {xb, 12000, 12}, {zw, 16000, 12}}, resolve: &no},
		{name: "noise only", n: 60000, resolve: &no},
		{name: "sliver shorter than every preamble", n: 100, resolve: &no},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				gen := rng.New(100*uint64(ci) + seed)
				n := tc.n
				var ems []channel.Emission
				for bi, b := range tc.bursts {
					sig, err := b.tech.Modulate([]byte{byte(ci), byte(seed), byte(bi), 4, 5, 6, 7, 8}, fs)
					if err != nil {
						t.Fatal(err)
					}
					ems = append(ems, channel.Emission{Samples: sig, Offset: b.offset, SNRdB: b.snr})
					n = max(n, b.offset+len(sig)+20000)
				}
				rx := channel.Mix(n, ems, gen, fs)
				pristine := dsp.Clone(rx)

				demods := 0
				counted := make([]phy.Technology, len(techs))
				for i, tech := range techs {
					counted[i] = demodCounter{tech, &demods}
				}
				d := NewDecoder(counted, fs)

				got, want := d.EdgeDecode(rx, false), oldEdgeRule(techs, pristine, true)
				if !sameFrame(got, want) {
					t.Fatalf("seed %d: EdgeDecode = %+v, two-pass rule = %+v", seed, got, want)
				}
				if tc.resolve != nil && (got != nil) != *tc.resolve {
					t.Fatalf("seed %d: resolved = %v, want %v", seed, got != nil, *tc.resolve)
				}
				// Demodulate at most once, and never on a suspected collision.
				suspected := false
				if cands := d.Classify(rx); len(cands) > 1 {
					for _, c := range cands[1:] {
						suspected = suspected || c.Score > collisionScore
					}
				}
				if demods > 1 || (suspected && demods != 0) {
					t.Fatalf("seed %d: %d demodulations (suspected collision: %v)", seed, demods, suspected)
				}

				demods = 0
				got, want = d.EdgeDecode(rx, true), oldEdgeRule(techs, pristine, false)
				if !sameFrame(got, want) {
					t.Fatalf("seed %d: last-resort EdgeDecode = %+v, one-round SIC = %+v", seed, got, want)
				}
				if demods > 1 {
					t.Fatalf("seed %d: last resort demodulated %d times", seed, demods)
				}
				if !slices.Equal(rx, pristine) {
					t.Fatalf("seed %d: EdgeDecode modified the segment", seed)
				}
			}
		})
	}
}
