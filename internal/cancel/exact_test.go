package cancel

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

// oldClassify is Classify before the shared capture transform: one
// normalized correlation, and so one forward FFT of rx, per technology.
func oldClassify(d *Decoder, rx []complex128) []Candidate {
	var out []Candidate
	for _, t := range d.techs {
		pre := t.Preamble(d.fs)
		if len(pre) == 0 || len(rx) < len(pre) {
			continue
		}
		metric := dsp.NormalizedCorrelate(rx, pre)
		pk := dsp.MaxPeak(metric)
		if pk.Index < 0 || pk.Value < minScore {
			continue
		}
		winPower := dsp.Power(rx[pk.Index:min(pk.Index+len(pre), len(rx))])
		out = append(out, Candidate{
			Tech:   t,
			Offset: pk.Index,
			Score:  pk.Value,
			Power:  pk.Value * pk.Value * winPower,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Power > out[j].Power })
	return out
}

// oldKillFrequency is KillFrequency before it transformed one buffer in
// place: FFT into a copy, notch, IFFT into another.
func oldKillFrequency(rx []complex128, tones []float64, width, fs float64) []complex128 {
	n := len(rx)
	if n == 0 || len(tones) == 0 || width <= 0 {
		return dsp.Clone(rx)
	}
	spec := dsp.FFT(rx)
	binHz := fs / float64(n)
	half := width / 2
	for _, tone := range tones {
		lo := int(math.Floor((tone - half) / binHz))
		hi := int(math.Ceil((tone + half) / binHz))
		for b := lo; b <= hi; b++ {
			idx := ((b % n) + n) % n
			spec[idx] = 0
		}
	}
	return ifft(spec)
}

// ifft is the copying inverse transform: dsp.IFFTInPlace over a copy of x.
func ifft(x []complex128) []complex128 {
	out := dsp.Clone(x)
	dsp.IFFTInPlace(out)
	return out
}

// oldCSSApply is CSSKiller.Apply before its per-block scratch was hoisted
// out of the block loop (an FFT, magnitude, median and IFFT buffer and a
// hot-bin list allocated per chirp period).
func oldCSSApply(k *CSSKiller, rx []complex128, fs float64) []complex128 {
	cfg := k.tech.(*lora.Radio).Config()
	bw := cfg.Bandwidth
	chips := 1 << uint(cfg.SF)
	osr := int(math.Round(fs / bw))
	if osr < 1 {
		return dsp.Clone(rx)
	}
	n := chips * osr
	if len(rx) < n {
		return dsp.Clone(rx)
	}
	down := baseChirp(false, chips, osr, bw, fs)
	up := baseChirp(true, chips, osr, bw, fs)
	out := dsp.Clone(rx)
	threshold := dsp.FromDB(cssDominanceDB)
	for start := 0; start+n <= len(out); start += n {
		block := out[start : start+n]
		for i := range block {
			block[i] *= down[i]
		}
		spec := dsp.FFT(block)
		mags := dsp.AbsSq(spec)
		sorted := slices.Clone(mags)
		sort.Float64s(sorted)
		med := sorted[len(sorted)/2]
		if med <= 0 {
			med = 1e-30
		}
		type bin struct {
			idx int
			mag float64
		}
		var hot []bin
		for i, m := range mags {
			if m > med*threshold {
				hot = append(hot, bin{i, m})
			}
		}
		if len(hot) > 0 {
			sort.Slice(hot, func(a, b int) bool { return hot[a].mag > hot[b].mag })
			if len(hot) > cssMaxNotch {
				hot = hot[:cssMaxNotch]
			}
			for _, h := range hot {
				for d := -1; d <= 1; d++ {
					spec[((h.idx+d)%len(spec)+len(spec))%len(spec)] = 0
				}
			}
			cleaned := ifft(spec)
			copy(block, cleaned)
		}
		for i := range block {
			block[i] *= up[i]
		}
	}
	return out
}

// baseChirp is the chirp KILL-CSS synthesized for itself before it asked
// the technology for one: one chirp period, fully determined by SF, BW and
// fs.
func baseChirp(upDir bool, chips, osr int, bw, fs float64) []complex128 {
	n := chips * osr
	out := make([]complex128, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		f := -bw/2 + bw*float64(i%n)/float64(n)
		if !upDir {
			f = -f
		}
		s, c := math.Sincos(phase)
		out[i] = complex(c, s)
		phase += 2 * math.Pi * f / fs
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
	}
	return out
}

// TestLoRaChirpMatchesOldBaseChirp: the chirps KILL-CSS now takes from
// lora are bit for bit the ones it used to synthesize, at three rates and
// two spreading factors.
func TestLoRaChirpMatchesOldBaseChirp(t *testing.T) {
	sf9, err := lora.New(lora.Config{SF: 9, Bandwidth: 125e3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*lora.Radio{lora.Default(), sf9} {
		cfg := r.Config()
		for _, rate := range []float64{250e3, 1e6, 2e6} {
			osr := int(math.Round(rate / cfg.Bandwidth))
			for _, up := range []bool{false, true} {
				if !sameSamples(r.Chirp(up, rate), baseChirp(up, 1<<uint(cfg.SF), osr, cfg.Bandwidth, rate)) {
					t.Fatalf("SF%d at %g Hz, up=%v: lora.Chirp differs from the old base chirp", cfg.SF, rate, up)
				}
			}
		}
	}
}

// sameSamples compares bit patterns, so even the sign of a zero counts.
func sameSamples(a, b []complex128) bool {
	return slices.EqualFunc(a, b, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) && math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
}

// collisionCaptures renders seeded captures covering what Classify and the
// kill filters meet: a 3-way and a 2-way collision, a lone frame, noise.
func collisionCaptures(t *testing.T) map[string][]complex128 {
	t.Helper()
	lr, xb, zw := lora.Default(), xbee.Default(), zwave.Default()
	render := func(seed uint64, n int, bursts ...phy.Technology) []complex128 {
		var ems []channel.Emission
		for i, tech := range bursts {
			sig, err := tech.Modulate([]byte{byte(seed), byte(i), 3, 4, 5, 6, 7, 8}, fs)
			if err != nil {
				t.Fatal(err)
			}
			off := 6000 + 3000*i
			ems = append(ems, channel.Emission{Samples: sig, Offset: off, SNRdB: 12})
			n = max(n, off+len(sig)+20000)
		}
		return channel.Mix(n, ems, rng.New(seed), fs)
	}
	return map[string][]complex128{
		"3-way":      render(1, 0, lr, xb, zw),
		"lora+xbee":  render(2, 0, lr, xb),
		"lone zwave": render(3, 0, zw),
		"noise":      render(4, 60000),
	}
}

func TestClassifyMatchesPerTechnologyOracle(t *testing.T) {
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	d := NewDecoder(techs, fs)
	caps := collisionCaptures(t)
	caps["sliver"] = caps["noise"][:100]
	for name, rx := range caps {
		want := oldClassify(d, rx)
		for pass := 0; pass < 2; pass++ {
			got := d.Classify(rx)
			if len(got) != len(want) {
				t.Fatalf("%s: %d candidates, oracle %d", name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Tech.Name() != w.Tech.Name() || g.Offset != w.Offset ||
					math.Float64bits(g.Score) != math.Float64bits(w.Score) || math.Float64bits(g.Power) != math.Float64bits(w.Power) {
					t.Fatalf("%s candidate %d: %+v, oracle %+v", name, i, g, w)
				}
			}
		}
	}
}

func TestKillFiltersMatchOldBodiesExactly(t *testing.T) {
	xb, zw, lr := xbee.Default(), zwave.Default(), lora.Default()
	for name, rx := range collisionCaptures(t) {
		for _, tt := range []phy.ToneTechnology{xb, zw} {
			width := FSKKillWidth(tt.BitRate())
			if !sameSamples(KillFrequency(rx, tt.Tones(), width, fs), oldKillFrequency(rx, tt.Tones(), width, fs)) {
				t.Fatalf("%s: KillFrequency(%s) differs from the old body", name, tt.Name())
			}
		}
		k := NewCSSKiller(lr)
		if !sameSamples(k.Apply(rx, fs), oldCSSApply(k, rx, fs)) {
			t.Fatalf("%s: CSSKiller.Apply differs from the old body", name)
		}
	}

}

// TestStrongestFirstBreaksTiesLikeSortSlice: which bins a capped notch
// clears depends on how equal magnitudes are ordered, and the unstable sort
// KILL-CSS used to run (sort.Slice) must be matched permutation for
// permutation, not just up to ties.
func TestStrongestFirstBreaksTiesLikeSortSlice(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{5, 13, 100, 1000, 8192} {
		hot := make([]hotBin, n)
		for i := range hot {
			hot[i] = hotBin{i, float64(r.Intn(4))}
		}
		want := slices.Clone(hot)
		sort.Slice(want, func(a, b int) bool { return want[a].mag > want[b].mag })
		strongestFirst(hot)
		if !slices.Equal(hot, want) {
			t.Fatalf("n=%d: tie order differs from sort.Slice", n)
		}
	}
}

// TestCSSKillerAllocsFixedPerCall is the alloc floor of KILL-CSS: its
// allocations (output, two base chirps, one set of block scratch) do not
// grow with the number of chirp periods in the capture.
func TestCSSKillerAllocsFixedPerCall(t *testing.T) {
	k := NewCSSKiller(lora.Default())
	rx := collisionCaptures(t)["lora+xbee"]
	long := slices.Concat(rx, rx, rx, rx)
	one := testing.AllocsPerRun(5, func() { k.Apply(rx, fs) })
	four := testing.AllocsPerRun(5, func() { k.Apply(long, fs) })
	if one != four || one > 7 {
		t.Fatalf("CSSKiller.Apply allocates %.0f times on a capture and %.0f on one 4x longer; want the same, at most 7", one, four)
	}
}
