// Package fsk implements a generic continuous-phase (G)FSK modem shared by
// the XBee and Z-Wave PHYs: binary frequency-shift keying with optional
// Gaussian pulse shaping, a polar-discriminator demodulator with integrate-
// and-dump bit decisions, and preamble-based synchronization helpers.
//
// The modem supports fractional samples-per-bit: bit boundaries are placed
// at round(i·fs/Rb), so any bit rate can be used at any sample rate.
package fsk

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/phy"
)

// Modem describes a binary FSK air interface.
type Modem struct {
	BitRate   float64 // bits per second
	Deviation float64 // frequency deviation in Hz: bit 1 → +Deviation, bit 0 → -Deviation
	BT        float64 // Gaussian bandwidth-time product; 0 disables shaping (plain BFSK)
}

// Validate reports whether the modem parameters are usable at fs.
func (m Modem) Validate(fs float64) error {
	if m.BitRate <= 0 {
		return fmt.Errorf("fsk: bit rate must be positive")
	}
	if m.Deviation <= 0 {
		return fmt.Errorf("fsk: deviation must be positive")
	}
	if fs < 4*(m.Deviation+m.BitRate) {
		return fmt.Errorf("fsk: sample rate %g too low for deviation %g / bit rate %g", fs, m.Deviation, m.BitRate)
	}
	return nil
}

// boundary returns the sample index where bit i starts.
func (m Modem) boundary(i int, fs float64) int {
	return int(math.Round(float64(i) * fs / m.BitRate))
}

// NumSamples returns the airtime in samples of nBits bits.
func (m Modem) NumSamples(nBits int, fs float64) int {
	return m.boundary(nBits, fs)
}

// levels returns the per-sample NRZ level sequence (±1) of the bit stream,
// Gaussian-shaped when BT is set.
func (m Modem) levels(bitstream []byte, fs float64) []float64 {
	n := m.NumSamples(len(bitstream), fs)
	levels := make([]float64, n)
	for i, b := range bitstream {
		lv := -1.0
		if b != 0 {
			lv = 1.0
		}
		from, to := m.boundary(i, fs), m.boundary(i+1, fs)
		for j := from; j < to && j < n; j++ {
			levels[j] = lv
		}
	}
	if m.BT > 0 {
		sps := int(math.Round(fs / m.BitRate))
		if sps < 2 {
			sps = 2
		}
		g := dsp.Gaussian(m.BT, sps, 4)
		levels = g.ApplyReal(levels)
	}
	return levels
}

// ModulateBits produces the unit-amplitude complex baseband waveform of the
// given bit stream (values 0/1).
func (m Modem) ModulateBits(bitstream []byte, fs float64) ([]complex128, error) {
	if err := m.Validate(fs); err != nil {
		return nil, err
	}
	levels := m.levels(bitstream, fs)
	out := make([]complex128, len(levels))
	phase := 0.0
	k := 2 * math.Pi * m.Deviation / fs
	for i, lv := range levels {
		s, c := math.Sincos(phase)
		out[i] = complex(c, s)
		phase += k * lv
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
	}
	return out, nil
}

// Discriminate returns the per-sample instantaneous-frequency estimate of
// rx after low-pass filtering to the signal bandwidth (Carson bandwidth).
// The output has len(rx) entries (the first is duplicated).
func (m Modem) Discriminate(rx []complex128, fs float64) []float64 {
	cutoff := m.Deviation + m.BitRate // Carson's rule / 2 per side
	taps := int(fs/m.BitRate)*2 + 1
	if taps > 129 {
		taps = 129
	}
	lp := dsp.LowPass(cutoff, fs, taps)
	filtered := lp.ApplyComplex(rx)
	d := dsp.FreqDiscriminator(filtered, fs)
	out := make([]float64, len(rx))
	if len(d) > 0 {
		out[0] = d[0]
		copy(out[1:], d)
	}
	return out
}

// DemodulateBits slices nBits bit decisions from the discriminator output
// starting at sample start. The cfo argument (Hz) is subtracted from every
// frequency estimate before the sign decision.
func (m Modem) DemodulateBits(disc []float64, start, nBits int, fs float64, cfo float64) []byte {
	out := make([]byte, nBits)
	for i := 0; i < nBits; i++ {
		from := start + m.boundary(i, fs)
		to := start + m.boundary(i+1, fs)
		if from >= len(disc) {
			break
		}
		if to > len(disc) {
			to = len(disc)
		}
		// Integrate and dump over the central 60% of the bit period to
		// avoid inter-symbol transitions.
		span := to - from
		lo := from + span/5
		hi := to - span/5
		if hi <= lo {
			lo, hi = from, to
		}
		var acc float64
		for j := lo; j < hi; j++ {
			acc += disc[j] - cfo
		}
		if acc > 0 {
			out[i] = 1
		}
	}
	return out
}

// DemodulateBitsTone makes per-bit decisions by noncoherent orthogonal FSK
// detection: each bit window is projected (Goertzel) onto the two expected
// tone frequencies cfo±Deviation and the stronger projection wins. Unlike
// the broadband discriminator, this detector only sees interference that
// lands exactly on the two tones, which makes it far more robust when a
// collision has been cleaned by a notch filter that leaves residual
// wideband energy. It is used as a fallback when the discriminator path
// fails a frame's CRC.
func (m Modem) DemodulateBitsTone(rx []complex128, start, nBits int, fs, cfo float64) []byte {
	out := make([]byte, nBits)
	for i := 0; i < nBits; i++ {
		from := start + m.boundary(i, fs)
		to := start + m.boundary(i+1, fs)
		if from >= len(rx) {
			break
		}
		if to > len(rx) {
			to = len(rx)
		}
		span := to - from
		lo := from + span/5
		hi := to - span/5
		if hi <= lo {
			lo, hi = from, to
		}
		seg := rx[lo:hi]
		gp := dsp.Goertzel(seg, cfo+m.Deviation, fs)
		gm := dsp.Goertzel(seg, cfo-m.Deviation, fs)
		pp := real(gp)*real(gp) + imag(gp)*imag(gp)
		pm := real(gm)*real(gm) + imag(gm)*imag(gm)
		if pp > pm {
			out[i] = 1
		}
	}
	return out
}

// EstimateCFO measures the residual carrier offset as the mean
// discriminator value over a DC-balanced stretch (such as a 0101 preamble)
// of nBits bits starting at sample start.
func (m Modem) EstimateCFO(disc []float64, start, nBits int, fs float64) float64 {
	from := start
	to := start + m.NumSamples(nBits, fs)
	if to > len(disc) {
		to = len(disc)
	}
	if to <= from {
		return 0
	}
	var acc float64
	for j := from; j < to; j++ {
		acc += disc[j]
	}
	return acc / float64(to-from)
}

// FreqTemplate returns the expected instantaneous-frequency trajectory (Hz
// per sample) of the given bit stream, including Gaussian shaping. It is
// the matched template for discriminator-domain synchronization.
func (m Modem) FreqTemplate(bitstream []byte, fs float64) []float64 {
	levels := m.levels(bitstream, fs)
	for i := range levels {
		levels[i] *= m.Deviation
	}
	return levels
}

// SyncDisc finds the start of a frame whose preamble+SFD bit pattern is
// preBits, by correlating the discriminator output against the expected
// frequency trajectory with local mean removal. Because a carrier offset
// appears in the discriminator as a pure DC bias, this synchronizer is
// CFO-immune. The quality value is the normalized correlation in [-1, 1].
func (m Modem) SyncDisc(disc []float64, preBits []byte, fs float64) (start int, quality float64) {
	tmpl := m.FreqTemplate(preBits, fs)
	metric := dsp.NormalizedCorrelateReal(disc, tmpl)
	if metric == nil {
		return 0, 0
	}
	pk := dsp.MaxPeak(metric)
	if pk.Index < 0 {
		return 0, 0
	}
	return pk.Index, pk.Value
}

// syncQuality is the lowest SyncDisc correlation Receive accepts as a
// frame header.
const syncQuality = 0.35

// Decisions makes the bit decisions of one synchronized frame, by the
// discriminator or, in Receive's fallback pass, by tone detection.
type Decisions struct {
	m       Modem
	disc    []float64
	rx      []complex128
	start   int
	fs, cfo float64
	tone    bool
}

// Bits returns n bit decisions starting at sample at, counted from the end
// of the frame header.
func (d Decisions) Bits(at, n int) []byte {
	if d.tone {
		return d.m.DemodulateBitsTone(d.rx, d.start+at, n, d.fs, d.cfo)
	}
	return d.m.DemodulateBits(d.disc, d.start+at, n, d.fs, d.cfo)
}

// Receive is the FSK receive path the PHYs share. It finds the header bit
// pattern hdr in rx by discriminator sync, estimates the carrier offset
// over the header's first cfoBits bits, and hands the bits after the
// header to parse, which returns the frame's bytes and whether its check
// sequence holds. parse runs on the discriminator's decisions first (best
// in clean AWGN) and again on noncoherent tone decisions when that gives no
// CRC-clean frame: tone detection looks only at the two tones, so it
// survives interference the discriminator's low-pass lets through. A
// window shorter than the header plus minBits bits is no frame; tech names
// the PHY in errors. start is the header's first sample in rx.
func (m Modem) Receive(rx []complex128, fs float64, tech string, hdr []byte, minBits, cfoBits int,
	parse func(Decisions) ([]byte, bool, error)) (frame []byte, crcOK bool, start int, cfo float64, err error) {
	if err := m.Validate(fs); err != nil {
		return nil, false, 0, 0, err
	}
	hdrSamples := m.NumSamples(len(hdr), fs)
	if len(rx) < hdrSamples+m.NumSamples(minBits, fs) {
		return nil, false, 0, 0, fmt.Errorf("%w: %s window too short", phy.ErrNoFrame, tech)
	}
	disc := m.Discriminate(rx, fs)
	start, quality := m.SyncDisc(disc, hdr, fs)
	if quality < syncQuality {
		return nil, false, 0, 0, fmt.Errorf("%w: %s preamble not found (quality %.3f)", phy.ErrNoFrame, tech, quality)
	}
	cfo = m.EstimateCFO(disc, start, cfoBits, fs)
	d := Decisions{m: m, disc: disc, rx: rx, start: start + hdrSamples, fs: fs, cfo: cfo}
	frame, crcOK, err = parse(d)
	if err != nil || !crcOK {
		d.tone = true
		if f2, ok2, err2 := parse(d); err2 == nil && ok2 {
			frame, crcOK, err = f2, ok2, nil
		}
	}
	if err != nil {
		return nil, false, 0, 0, err
	}
	return frame, crcOK, start, cfo, nil
}
