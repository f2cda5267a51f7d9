// Package cancel implements GalioT's cloud-side collision decoding (paper
// Sec. 5): the three modulation-class "kill" filters — KILL-FREQUENCY for
// FSK/PSK, KILL-CSS for chirp spread spectrum and KILL-CODES for DSSS —
// plus successive interference cancellation (SIC) and the combined
// CloudDecode procedure of Algorithm 1 that wraps SIC around the filters.
//
// A kill filter removes one technology's energy from a collision without
// needing to decode it, exploiting where that technology's modulation
// concentrates energy: FSK at discrete tones, CSS along a known chirp
// trajectory (which dechirping collapses to narrow tones), DSSS inside a
// low-dimensional code subspace. After the interferer is killed, the
// remaining technology is decoded normally; SIC then reconstructs and
// subtracts it from the original samples so the killed technology can be
// recovered as well.
package cancel

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/dsp"
	"repro/internal/phy"
)

// KillFrequency notches the given tone offsets (Hz from band center) out of
// rx, removing ±width/2 around each tone in the frequency domain. It
// returns a new slice. This is the paper's KILL-FREQUENCY filter: FSK
// modulations such as Z-Wave's BFSK and XBee's GFSK concentrate energy at
// two discrete tones (for modulation index 1, half the transmit power sits
// in spectral lines at ±deviation), and PSK concentrates energy in a narrow
// band at the center, so zeroing those regions eliminates most of the
// interferer while sparing wideband neighbors.
func KillFrequency(rx []complex128, tones []float64, width, fs float64) []complex128 {
	n := len(rx)
	if n == 0 || len(tones) == 0 || width <= 0 {
		return dsp.Clone(rx)
	}
	out := dsp.Clone(rx)
	dsp.FFTInPlace(out)
	binHz := fs / float64(n)
	half := width / 2
	for _, tone := range tones {
		lo := int(math.Floor((tone - half) / binHz))
		hi := int(math.Ceil((tone + half) / binHz))
		for b := lo; b <= hi; b++ {
			idx := ((b % n) + n) % n
			out[idx] = 0
		}
	}
	dsp.IFFTInPlace(out)
	return out
}

// FSKKillWidth returns the notch width used to kill an FSK technology with
// the given bit rate: 0.3× the bit rate around each tone. For modulation
// index 1 (Sunde's FSK, used by both the XBee and Z-Wave profiles here)
// half the transmit power sits in discrete spectral lines at ±deviation;
// this width removes the lines and their immediate skirt while staying
// narrow enough not to flatten a neighboring technology's tones — measured
// empirically in the cancel tests, widths up to ~0.6× the victim's own
// bandwidth separation stay safe.
func FSKKillWidth(bitRate float64) float64 { return 0.3 * bitRate }

// CSSKiller removes chirp-spread-spectrum energy. It multiplies the capture
// by a free-running train of base downchirps, which collapses any CSS
// symbol energy (whatever its data value or alignment) onto at most two
// narrow tones per chirp period; those dominant tones are then notched
// block-by-block, and the remainder is re-chirped, restoring every
// non-CSS signal. This is the paper's KILL-CSS filter — it needs no CSS
// symbol synchronization and never decodes the LoRa transmission.
type CSSKiller struct {
	tech phy.ChirpTechnology
}

// NewCSSKiller returns a KILL-CSS filter for the given chirp technology.
func NewCSSKiller(tech phy.ChirpTechnology) *CSSKiller {
	return &CSSKiller{tech: tech}
}

// cssMaxNotch bounds how many FFT bins KILL-CSS clears per chirp period:
// each LoRa symbol contributes at most 2 dechirped tones and misalignment
// doubles that; 8 leaves headroom for strong multipath-like leakage.
const cssMaxNotch = 8

// cssDominanceDB is how far above its block's median a dechirped bin must
// sit to count as CSS energy.
const cssDominanceDB = 12

// hotBin is a dechirped FFT bin that KILL-CSS considers CSS energy.
type hotBin struct {
	idx int
	mag float64
}

// strongestFirst sorts hot by descending magnitude without allocating. It
// is the same pattern-defeating quicksort as sort.Slice with the same
// comparisons, so bins of equal magnitude — and with them which bins a
// capped notch clears — end up in the same order.
func strongestFirst(hot []hotBin) {
	slices.SortFunc(hot, func(a, b hotBin) int { return cmp.Compare(b.mag, a.mag) })
}

// Apply runs the filter at sample rate fs, which must be a rate the
// technology can modulate at, returning a new slice. It synthesizes the
// base chirps on every call; a Decoder builds them once.
func (k *CSSKiller) Apply(rx []complex128, fs float64) []complex128 {
	return killCSS(rx, k.tech.Chirp(false, fs), k.tech.Chirp(true, fs))
}

// killCSS is KILL-CSS with the base downchirp and upchirp given, one chirp
// period each. Its allocations are fixed per call (the output and one set
// of per-block scratch), whatever the capture length.
func killCSS(rx, down, up []complex128) []complex128 {
	n := len(down) // samples per chirp period
	if n == 0 || len(rx) < n {
		return dsp.Clone(rx)
	}
	out := dsp.Clone(rx)
	threshold := dsp.FromDB(cssDominanceDB)
	spec := make([]complex128, n)
	mags := make([]float64, n)
	sorted := make([]float64, n)
	hot := make([]hotBin, 0, n)
	for start := 0; start+n <= len(out); start += n {
		block := out[start : start+n]
		// dechirp
		for i := range block {
			block[i] *= down[i]
		}
		copy(spec, block)
		dsp.FFTInPlace(spec)
		for i, v := range spec {
			mags[i] = real(v)*real(v) + imag(v)*imag(v)
		}
		copy(sorted, mags)
		slices.Sort(sorted)
		med := sorted[n/2]
		if med <= 0 {
			med = 1e-30
		}
		// notch the dominant narrow tones
		hot = hot[:0]
		for i, m := range mags {
			if m > med*threshold {
				hot = append(hot, hotBin{i, m})
			}
		}
		if len(hot) > 0 {
			strongestFirst(hot)
			if len(hot) > cssMaxNotch {
				hot = hot[:cssMaxNotch]
			}
			for _, h := range hot {
				// clear the bin and one neighbor each side (fractional
				// frequency leakage)
				for d := -1; d <= 1; d++ {
					spec[((h.idx+d)%n+n)%n] = 0
				}
			}
			dsp.IFFTInPlace(spec)
			copy(block, spec)
		}
		// re-chirp
		for i := range block {
			block[i] *= up[i]
		}
	}
	// The tail shorter than one chirp period is left untouched.
	return out
}

// KillCodes projects DSSS transmissions out of the capture. The filter
// synchronizes to the coded technology's preamble, then for every symbol
// slot projects the received chip-rate samples onto each of the known
// spreading-code waveforms and subtracts the strongest projection. Because
// the code waveforms are (quasi-)orthogonal, other technologies lose almost
// no energy. If the coded technology's preamble is not present above
// minQuality, rx is returned unchanged. It synthesizes the preamble and the
// code waveforms on every call; a Decoder builds them once.
func KillCodes(rx []complex128, tech phy.CodedTechnology, fs float64, minQuality float64) []complex128 {
	return killCodes(rx, tech.Preamble(fs), tech.CodeWaveforms(fs), minQuality)
}

// killCodes is KILL-CODES with the preamble pre and the per-symbol code
// waveforms given.
func killCodes(rx, pre []complex128, waves [][]complex128, minQuality float64) []complex128 {
	if len(waves) == 0 || len(pre) == 0 || len(rx) < len(pre) {
		return dsp.Clone(rx)
	}
	metric := dsp.NormalizedCorrelate(rx, pre)
	pk := dsp.MaxPeak(metric)
	if pk.Index < 0 || pk.Value < minQuality {
		return dsp.Clone(rx)
	}
	start := pk.Index

	symLen := len(waves[0])
	out := dsp.Clone(rx)
	// Walk symbol slots from the sync point until projections stop finding
	// significant energy (end of the coded burst).
	misses := 0
	for pos := start; pos+symLen <= len(out) && misses < 4; pos += symLen {
		seg := out[pos : pos+symLen]
		segE := dsp.Energy(seg)
		if segE == 0 {
			misses++
			continue
		}
		bestGain := complex(0, 0)
		bestIdx := -1
		bestFrac := 0.0
		for ci, w := range waves {
			proj := dsp.Dot(seg, w)
			wE := dsp.Energy(w)
			if wE == 0 {
				continue
			}
			gain := proj / complex(wE, 0)
			captured := real(proj * complex(real(gain), -imag(gain))) // |proj|²/wE
			frac := captured / segE
			if frac > bestFrac {
				bestFrac, bestGain, bestIdx = frac, gain, ci
			}
		}
		// Only subtract when the code subspace explains a meaningful share
		// of the slot energy; otherwise we are past the burst.
		if bestIdx < 0 || bestFrac < 0.2 {
			misses++
			continue
		}
		misses = 0
		w := waves[bestIdx]
		for i := range seg {
			seg[i] -= bestGain * w[i]
		}
	}
	return out
}
