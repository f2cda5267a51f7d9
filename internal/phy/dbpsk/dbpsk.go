// Package dbpsk implements a SigFox-class ultra-narrowband differential
// BPSK PHY — the PSK row of the paper's Table 1 and the technology class
// handled by KILL-FREQUENCY's narrowband variant. Data is encoded
// differentially (a '1' flips the carrier phase by π, a '0' keeps it), so
// the receiver needs no absolute phase reference; energy stays confined to
// a band of roughly twice the symbol rate around the carrier.
//
// Real SigFox transmits 100 bps uplinks; at the gateway's 1 MHz capture
// rate a single frame would span seconds, so the default profile scales the
// rate to 2 kb/s while preserving the ultra-narrowband character (the
// occupied bandwidth stays below 1 % of the capture).
package dbpsk

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/phy"
)

// Config parameterizes the PHY. Zero values take defaults via New.
type Config struct {
	BitRate float64 // symbol rate in bits/s (default 2000)
	// CenterOffset places the ultra-narrowband carrier within the capture
	// (default -300 kHz: its own sliver of the band, as UNB systems do).
	CenterOffset float64
	PreambleLen  int // preamble bytes of 0xAA (default 4, per Table 1)
	MaxPayload   int // bytes (default 12, SigFox-style short frames)
}

// Radio is a D-BPSK PHY instance, safe for concurrent use.
type Radio struct {
	cfg Config
}

// syncWord marks the end of the preamble (SigFox frame type marker style).
var syncWord = [2]byte{0xB2, 0x27}

// New validates cfg, fills defaults, and returns a Radio.
func New(cfg Config) (*Radio, error) {
	if cfg.BitRate == 0 {
		cfg.BitRate = 2000
	}
	if cfg.CenterOffset == 0 {
		cfg.CenterOffset = -300e3
	}
	if cfg.PreambleLen == 0 {
		cfg.PreambleLen = 4
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 12
	}
	if cfg.BitRate <= 0 {
		return nil, fmt.Errorf("dbpsk: bit rate must be positive")
	}
	if cfg.PreambleLen < 2 {
		return nil, fmt.Errorf("dbpsk: preamble length %d too short", cfg.PreambleLen)
	}
	if cfg.MaxPayload < 1 || cfg.MaxPayload > 64 {
		return nil, fmt.Errorf("dbpsk: max payload %d out of range 1..64", cfg.MaxPayload)
	}
	return &Radio{cfg: cfg}, nil
}

// Default returns the SigFox-class profile used in the reproduction.
func Default() *Radio {
	r, err := New(Config{})
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements phy.Technology.
func (r *Radio) Name() string { return "dbpsk" }

// Class implements phy.Technology.
func (r *Radio) Class() phy.Class { return phy.ClassPSK }

// Config returns the active configuration.
func (r *Radio) Config() Config { return r.cfg }

// OccupiedBandwidth implements phy.NarrowbandTechnology: the main lobe of
// rectangular BPSK spans ±bitRate around the carrier.
func (r *Radio) OccupiedBandwidth() float64 { return 2 * r.cfg.BitRate }

// Center implements phy.NarrowbandTechnology.
func (r *Radio) Center() float64 { return r.cfg.CenterOffset }

// Info implements phy.Technology.
func (r *Radio) Info() phy.Info {
	return phy.Info{
		Name:       "dbpsk",
		Modulation: "D-BPSK",
		Sync:       "4 bytes",
		Preamble:   "unknown",
		MaxPayload: r.cfg.MaxPayload,
	}
}

// BitRate implements phy.Technology.
func (r *Radio) BitRate() float64 { return r.cfg.BitRate }

// sps returns samples per symbol.
func (r *Radio) sps(fs float64) int {
	return int(math.Round(fs / r.cfg.BitRate))
}

// headerBits returns the frame prefix bits (preamble + sync word).
func (r *Radio) headerBits() []byte {
	hdr := make([]byte, 0, r.cfg.PreambleLen+2)
	for i := 0; i < r.cfg.PreambleLen; i++ {
		hdr = append(hdr, 0xAA)
	}
	hdr = append(hdr, syncWord[0], syncWord[1])
	return bits.Unpack(hdr)
}

// modulateBits renders a differentially encoded bit stream at baseband and
// shifts it to the configured center offset.
func (r *Radio) modulateBits(stream []byte, fs float64) ([]complex128, error) {
	sps := r.sps(fs)
	if sps < 4 {
		return nil, fmt.Errorf("dbpsk: sample rate %g too low for %g bits/s", fs, r.cfg.BitRate)
	}
	out := make([]complex128, len(stream)*sps)
	phase := 1.0 // differential state: +1 or -1
	// Smooth the phase flips over an eighth of a symbol to contain
	// spectral splatter, as a real UNB transmitter's pulse shaping does.
	ramp := sps / 8
	if ramp < 1 {
		ramp = 1
	}
	idx := 0
	for _, b := range stream {
		next := phase
		flip := b != 0
		if flip {
			next = -phase
		}
		for i := 0; i < sps; i++ {
			v := next
			if i < ramp && flip {
				// linear crossfade from previous to new phase state
				t := float64(i) / float64(ramp)
				v = phase*(1-t) + next*t
			}
			out[idx] = complex(v, 0)
			idx++
		}
		phase = next
	}
	if r.cfg.CenterOffset != 0 {
		dsp.Mix(out, r.cfg.CenterOffset, 0, fs)
	}
	dsp.Normalize(out)
	return out, nil
}

// Preamble implements phy.Technology.
func (r *Radio) Preamble(fs float64) []complex128 {
	w, err := r.modulateBits(r.headerBits(), fs)
	if err != nil {
		panic(err)
	}
	return w
}

// Modulate implements phy.Technology.
func (r *Radio) Modulate(payload []byte, fs float64) ([]complex128, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("dbpsk: empty payload")
	}
	if len(payload) > r.cfg.MaxPayload {
		return nil, fmt.Errorf("dbpsk: payload %d exceeds max %d", len(payload), r.cfg.MaxPayload)
	}
	crc := bits.CRC16CCITT(payload)
	frame := append([]byte{byte(len(payload))}, payload...)
	frame = append(frame, byte(crc>>8), byte(crc))
	stream := append(r.headerBits(), bits.Unpack(frame)...)
	return r.modulateBits(stream, fs)
}

// MaxPacketSamples implements phy.Technology.
func (r *Radio) MaxPacketSamples(fs float64) int {
	nBits := len(r.headerBits()) + 8*(1+r.cfg.MaxPayload+2)
	return nBits * r.sps(fs)
}

// Demodulate implements phy.Technology.
func (r *Radio) Demodulate(rx []complex128, fs float64) (*phy.Frame, error) {
	sps := r.sps(fs)
	if sps < 4 {
		return nil, fmt.Errorf("dbpsk: sample rate %g too low", fs)
	}
	pre := r.Preamble(fs)
	if len(rx) < len(pre)+8*3*sps {
		return nil, fmt.Errorf("%w: dbpsk window too short", phy.ErrNoFrame)
	}
	// Work at baseband: downshift and low-pass to the occupied band.
	base := dsp.Clone(rx)
	if r.cfg.CenterOffset != 0 {
		dsp.Mix(base, -r.cfg.CenterOffset, 0, fs)
	}
	lp := dsp.LowPass(1.5*r.cfg.BitRate, fs, 129)
	base = lp.ApplyComplex(base)

	basePre := dsp.Clone(pre)
	if r.cfg.CenterOffset != 0 {
		dsp.Mix(basePre, -r.cfg.CenterOffset, 0, fs)
	}
	metric := dsp.NormalizedCorrelate(base, basePre)
	pk := dsp.MaxPeak(metric)
	if pk.Index < 0 || pk.Value < 0.25 {
		return nil, fmt.Errorf("%w: dbpsk preamble not found (peak %.3f)", phy.ErrNoFrame, pk.Value)
	}
	start := pk.Index

	// Differential symbol decisions: integrate each symbol, compare the
	// phase with the previous symbol's integral.
	symbolAt := func(k int) complex128 {
		from := start + k*sps
		to := from + sps
		if from >= len(base) {
			return 0
		}
		if to > len(base) {
			to = len(base)
		}
		// central 60 % avoids the phase-transition ramps
		span := to - from
		lo := from + span/5
		hi := to - span/5
		var acc complex128
		for i := lo; i < hi && i < len(base); i++ {
			acc += base[i]
		}
		return acc
	}
	demodBits := func(firstSym, n int) []byte {
		out := make([]byte, n)
		prev := symbolAt(firstSym - 1)
		for i := 0; i < n; i++ {
			cur := symbolAt(firstSym + i)
			d := cur * complex(real(prev), -imag(prev))
			if real(d) < 0 {
				out[i] = 1
			}
			prev = cur
		}
		return out
	}
	hdrBits := len(r.headerBits())
	lenBits := demodBits(hdrBits, 8)
	length := int(bits.Pack(lenBits)[0])
	if length == 0 || length > r.cfg.MaxPayload {
		return nil, fmt.Errorf("%w: dbpsk length %d invalid", phy.ErrNoFrame, length)
	}
	bodyBits := 8 * (length + 2)
	if (hdrBits+8+bodyBits)*sps+start > len(base)+sps {
		return nil, fmt.Errorf("%w: dbpsk window truncated", phy.ErrNoFrame)
	}
	raw := demodBits(hdrBits+8, bodyBits)
	body := bits.Pack(raw)
	payload := body[:length]
	gotCRC := uint16(body[length])<<8 | uint16(body[length+1])
	crcOK := gotCRC == bits.CRC16CCITT(payload)

	frame := &phy.Frame{
		Tech:    "dbpsk",
		Payload: append([]byte{}, payload...),
		CRCOK:   crcOK,
		Bits:    length * 8,
		Offset:  start,
	}
	if crcOK {
		if ref, err := r.Modulate(payload, fs); err == nil {
			frame.Fit(rx, ref)
		}
	}
	return frame, nil
}

var _ phy.NarrowbandTechnology = (*Radio)(nil)
