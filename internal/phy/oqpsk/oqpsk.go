// Package oqpsk implements an IEEE 802.15.4-style O-QPSK DSSS PHY — the
// modulation family of Thread and WirelessHART in the paper's Table 1, and
// the target of the KILL-CODES cancellation filter. Each 4-bit symbol is
// spread to a 32-chip pseudo-noise sequence (the standard 802.15.4 set:
// eight cyclic shifts of a base sequence plus their odd-chip-conjugated
// twins); chips are transmitted offset-QPSK with half-sine pulse shaping
// (even chips on I, odd chips on Q, offset by one chip period), which gives
// a constant-envelope MSK-equivalent waveform.
package oqpsk

import (
	"fmt"
	"math"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/phy"
)

// base is the 802.15.4 2.4 GHz chip sequence for symbol 0, chip c0 first.
var base = [32]byte{
	1, 1, 0, 1, 1, 0, 0, 1,
	1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0,
	0, 0, 1, 0, 1, 1, 1, 0,
}

// chipTable holds the 16 spreading sequences indexed by symbol value.
var chipTable = buildChipTable()

func buildChipTable() [16][32]byte {
	var tbl [16][32]byte
	for sym := 0; sym < 8; sym++ {
		shift := 4 * sym
		for i := 0; i < 32; i++ {
			tbl[sym][i] = base[(i+32-shift)%32]
		}
	}
	for sym := 8; sym < 16; sym++ {
		tbl[sym] = tbl[sym-8]
		// conjugation: invert the odd-indexed (Q-channel) chips
		for i := 1; i < 32; i += 2 {
			tbl[sym][i] ^= 1
		}
	}
	return tbl
}

// sfd is the start-of-frame delimiter byte (802.15.4 value).
const sfd = 0xA7

// Config parameterizes the PHY. Zero values take defaults via New.
type Config struct {
	ChipRate    float64 // chips per second (default 250e3, giving 31.25 kb/s)
	PreambleLen int     // preamble bytes of 0x00 (default 4, per 802.15.4)
	MaxPayload  int     // bytes (default 96)
}

// Radio is an O-QPSK DSSS PHY instance, safe for concurrent use.
type Radio struct {
	cfg Config
}

// New validates cfg, fills defaults, and returns a Radio.
func New(cfg Config) (*Radio, error) {
	if cfg.ChipRate == 0 {
		cfg.ChipRate = 250e3
	}
	if cfg.PreambleLen == 0 {
		cfg.PreambleLen = 4
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 96
	}
	if cfg.ChipRate <= 0 {
		return nil, fmt.Errorf("oqpsk: chip rate must be positive")
	}
	if cfg.PreambleLen < 2 {
		return nil, fmt.Errorf("oqpsk: preamble length %d too short", cfg.PreambleLen)
	}
	if cfg.MaxPayload < 1 || cfg.MaxPayload > 255 {
		return nil, fmt.Errorf("oqpsk: max payload %d out of range", cfg.MaxPayload)
	}
	return &Radio{cfg: cfg}, nil
}

// Default returns the configuration used in the reproduction.
func Default() *Radio {
	r, err := New(Config{})
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements phy.Technology.
func (r *Radio) Name() string { return "oqpsk" }

// Class implements phy.Technology.
func (r *Radio) Class() phy.Class { return phy.ClassDSSS }

// Config returns the active configuration.
func (r *Radio) Config() Config { return r.cfg }

// CodeWaveforms implements phy.CodedTechnology: each symbol's 32 chips
// shaped as the modulator shapes them, over one symbol period (the trailing
// half-pulse that spills into the next symbol is cut). It panics if fs is
// not a supported rate, as Preamble does.
func (r *Radio) CodeWaveforms(fs float64) [][]complex128 {
	spc, err := r.spc(fs)
	if err != nil {
		panic(err)
	}
	symLen := 32 * spc
	buf := make([]complex128, len(chipTable)*symLen)
	out := make([][]complex128, len(chipTable))
	for sym := range out {
		w := buf[sym*symLen : (sym+1)*symLen : (sym+1)*symLen]
		shapeChips(w, []byte{byte(sym)}, spc)
		out[sym] = w
	}
	return out
}

// Info implements phy.Technology.
func (r *Radio) Info() phy.Info {
	return phy.Info{
		Name:       "oqpsk",
		Modulation: "O-QPSK",
		Sync:       "4 bytes",
		Preamble:   "binary 0s",
		MaxPayload: r.cfg.MaxPayload,
	}
}

// BitRate implements phy.Technology: 4 bits per 32-chip symbol.
func (r *Radio) BitRate() float64 { return r.cfg.ChipRate / 32 * 4 }

// spc returns integer samples per chip at fs.
func (r *Radio) spc(fs float64) (int, error) {
	ratio := fs / r.cfg.ChipRate
	s := int(math.Round(ratio))
	if s < 2 || math.Abs(ratio-float64(s)) > 1e-9 {
		return 0, fmt.Errorf("oqpsk: sample rate %g must be an integer multiple (>=2) of chip rate %g", fs, r.cfg.ChipRate)
	}
	return s, nil
}

// symbolsOf expands bytes to 4-bit symbols, low nibble first (802.15.4
// order).
func symbolsOf(data []byte) []byte {
	out := make([]byte, 0, 2*len(data))
	for _, b := range data {
		out = append(out, b&0x0F, b>>4)
	}
	return out
}

// bytesOfSymbols inverts symbolsOf; a trailing odd symbol is dropped.
func bytesOfSymbols(symbols []byte) []byte {
	out := make([]byte, 0, len(symbols)/2)
	for i := 0; i+1 < len(symbols); i += 2 {
		out = append(out, symbols[i]&0x0F|symbols[i+1]<<4)
	}
	return out
}

// shapeChips adds the chips of symbols into w as O-QPSK half-sine pulses
// at spc samples per chip: chip i of the stream starts at sample i·spc and
// spans two chips, even chips on I and odd chips on Q (so Q runs one chip
// behind I). w must reach past the last chip's start; pulses that run past
// its end are cut.
func shapeChips(w []complex128, symbols []byte, spc int) {
	pulse := make([]float64, 2*spc)
	for t := range pulse {
		pulse[t] = math.Sin(math.Pi * float64(t) / float64(2*spc))
	}
	for k, sym := range symbols {
		for i, chip := range chipTable[sym&0x0F] {
			d := float64(2*int(chip) - 1)
			start := (32*k + i) * spc
			for t, p := range pulse[:min(len(pulse), len(w)-start)] {
				v := w[start+t]
				if i%2 == 0 {
					w[start+t] = complex(real(v)+d*p, imag(v))
				} else {
					w[start+t] = complex(real(v), imag(v)+d*p)
				}
			}
		}
	}
}

// modulateSymbols produces the O-QPSK half-sine waveform of the given 4-bit
// symbols. The output is extended by one chip period for the trailing Q
// pulse; amplitude is normalized so the burst has unit average power.
func (r *Radio) modulateSymbols(symbols []byte, fs float64) ([]complex128, error) {
	spc, err := r.spc(fs)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 32*len(symbols)*spc+spc)
	shapeChips(out, symbols, spc)
	// O-QPSK with half-sine shaping is constant-envelope (|s| = 1) except
	// at the burst edges; normalize to unit average power.
	dsp.Normalize(out)
	return out, nil
}

// headerSymbols returns the preamble+SFD symbol stream.
func (r *Radio) headerSymbols() []byte {
	hdr := make([]byte, r.cfg.PreambleLen)
	hdr = append(hdr, sfd)
	return symbolsOf(hdr)
}

// Preamble implements phy.Technology.
func (r *Radio) Preamble(fs float64) []complex128 {
	w, err := r.modulateSymbols(r.headerSymbols(), fs)
	if err != nil {
		panic(err)
	}
	return w
}

// Modulate implements phy.Technology.
func (r *Radio) Modulate(payload []byte, fs float64) ([]complex128, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("oqpsk: empty payload")
	}
	if len(payload) > r.cfg.MaxPayload {
		return nil, fmt.Errorf("oqpsk: payload %d exceeds max %d", len(payload), r.cfg.MaxPayload)
	}
	crc := bits.CRC16IBM(payload)
	frame := append([]byte{byte(len(payload))}, payload...)
	frame = append(frame, byte(crc), byte(crc>>8))
	symbols := append(r.headerSymbols(), symbolsOf(frame)...)
	return r.modulateSymbols(symbols, fs)
}

// MaxPacketSamples implements phy.Technology.
func (r *Radio) MaxPacketSamples(fs float64) int {
	spc, err := r.spc(fs)
	if err != nil {
		return 0
	}
	nSym := len(r.headerSymbols()) + 2*(1+r.cfg.MaxPayload+2)
	return nSym*32*spc + spc
}

// chipSoft extracts soft chip values (I on even chips, Q on odd) from a
// derotated window starting at the given sample, for nChips chips.
func (r *Radio) chipSoft(rx []complex128, start, nChips, spc int) []float64 {
	out := make([]float64, nChips)
	for i := 0; i < nChips; i++ {
		// The half-sine pulse for chip i peaks one chip period after its
		// start boundary.
		center := start + i*spc + spc
		if center >= len(rx) {
			break
		}
		if i%2 == 0 {
			out[i] = real(rx[center])
		} else {
			out[i] = imag(rx[center])
		}
	}
	return out
}

// despreadSymbol correlates 32 soft chips against the chip table, returning
// the best symbol and its normalized correlation score.
func despreadSymbol(soft []float64) (byte, float64) {
	bestSym, bestScore := byte(0), math.Inf(-1)
	var energy float64
	for _, v := range soft {
		energy += v * v
	}
	for sym := 0; sym < 16; sym++ {
		var acc float64
		for i, v := range soft {
			if chipTable[sym][i] != 0 {
				acc += v
			} else {
				acc -= v
			}
		}
		if acc > bestScore {
			bestScore, bestSym = acc, byte(sym)
		}
	}
	if energy > 0 {
		bestScore /= math.Sqrt(energy * 32)
	}
	return bestSym, bestScore
}

// Demodulate implements phy.Technology.
func (r *Radio) Demodulate(rx []complex128, fs float64) (*phy.Frame, error) {
	spc, err := r.spc(fs)
	if err != nil {
		return nil, err
	}
	pre := r.Preamble(fs)
	minSyms := len(r.headerSymbols()) + 2*3
	if len(rx) < minSyms*32*spc {
		return nil, fmt.Errorf("%w: oqpsk window too short", phy.ErrNoFrame)
	}
	metric := dsp.NormalizedCorrelate(rx, pre)
	pk := dsp.MaxPeak(metric)
	if pk.Index < 0 || pk.Value < 0.15 {
		return nil, fmt.Errorf("%w: oqpsk preamble not found (peak %.3f)", phy.ErrNoFrame, pk.Value)
	}
	start := pk.Index
	// Channel phase from the complex correlation at the peak: derotate.
	corr := dsp.CrossCorrelate(rx[start:start+len(pre)], pre)
	work := dsp.Clone(rx[start:])
	if len(corr) > 0 {
		ph := math.Atan2(imag(corr[0]), real(corr[0]))
		s, c := math.Sincos(-ph)
		dsp.ScaleComplex(work, complex(c, s))
	}

	hdrSyms := len(r.headerSymbols())
	symAt := func(k int) (byte, float64) {
		soft := r.chipSoft(work, k*32*spc, 32, spc)
		return despreadSymbol(soft)
	}
	// length byte = symbols hdrSyms, hdrSyms+1
	lo, _ := symAt(hdrSyms)
	hi, _ := symAt(hdrSyms + 1)
	length := int(lo&0x0F | hi<<4)
	if length == 0 || length > r.cfg.MaxPayload {
		return nil, fmt.Errorf("%w: oqpsk length %d invalid", phy.ErrNoFrame, length)
	}
	bodySyms := 2 * (length + 2)
	if (hdrSyms+2+bodySyms)*32*spc > len(work)+spc {
		return nil, fmt.Errorf("%w: oqpsk window truncated", phy.ErrNoFrame)
	}
	symbols := make([]byte, bodySyms)
	for i := 0; i < bodySyms; i++ {
		symbols[i], _ = symAt(hdrSyms + 2 + i)
	}
	body := bytesOfSymbols(symbols)
	payload := body[:length]
	gotCRC := uint16(body[length]) | uint16(body[length+1])<<8
	crcOK := gotCRC == bits.CRC16IBM(payload)

	frame := &phy.Frame{
		Tech:    "oqpsk",
		Payload: append([]byte{}, payload...),
		CRCOK:   crcOK,
		Bits:    length * 8,
		Offset:  start,
	}
	if crcOK {
		if ref, merr := r.Modulate(frame.Payload, fs); merr == nil {
			frame.Fit(rx, ref)
		}
	}
	return frame, nil
}

var _ phy.CodedTechnology = (*Radio)(nil)
