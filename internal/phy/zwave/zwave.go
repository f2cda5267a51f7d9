// Package zwave implements a Z-Wave PHY following ITU-T G.9959: binary FSK
// at the R2 rate (40 kb/s, ±20 kHz deviation, NRZ coding) or the R1 rate
// (9.6 kb/s, Manchester coded), with the G.9959 MPDU framing — 0x55
// preamble, start-of-frame delimiter, HomeID/NodeID addressing and the
// 8-bit XOR frame checksum seeded with 0xFF. Bits are transmitted
// most-significant first, per the recommendation.
package zwave

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/fsk"
)

// Rate selects a G.9959 data rate profile.
type Rate int

// G.9959 rate profiles.
const (
	R2 Rate = iota // 40 kb/s, NRZ
	R1             // 9.6 kb/s, Manchester
	R3             // 100 kb/s, NRZ (GFSK, ±29 kHz deviation)
)

// String names the rate profile.
func (r Rate) String() string {
	switch r {
	case R1:
		return "R1"
	case R3:
		return "R3"
	default:
		return "R2"
	}
}

// Config parameterizes the PHY. Zero values take defaults via New.
type Config struct {
	Rate      Rate
	Deviation float64 // Hz (default 20 kHz)
	// CenterOffset places the carrier this many Hz from the capture
	// center. The default +250 kHz mirrors the EU 868 MHz band plan, where
	// Z-Wave (868.40/868.42 MHz) sits a few hundred kHz from the
	// LoRa/802.15.4g channels, all inside the gateway's 1 MHz window:
	// collisions overlap fully in time while the FSK energy stays at
	// distinct frequencies — the property KILL-FREQUENCY exploits.
	CenterOffset float64
	PreambleLen  int    // preamble bytes of 0x55 (default 8; G.9959 requires ≥10 for R2 on air, shortened here for airtime)
	MaxPayload   int    // bytes of MPDU payload (default 64)
	HomeID       uint32 // network identifier placed in transmitted frames
	NodeID       byte   // source node identifier
}

// Radio is a Z-Wave PHY instance, safe for concurrent use.
type Radio struct {
	cfg   Config
	modem fsk.Modem
}

// sof is the start-of-frame delimiter byte.
const sof = 0xF0

// New validates cfg, fills defaults, and returns a Radio.
func New(cfg Config) (*Radio, error) {
	if cfg.Deviation == 0 {
		cfg.Deviation = 20e3
		if cfg.Rate == R3 {
			cfg.Deviation = 29e3
		}
	}
	if cfg.CenterOffset == 0 {
		cfg.CenterOffset = 250e3
	}
	if cfg.PreambleLen == 0 {
		cfg.PreambleLen = 8
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 64
	}
	if cfg.HomeID == 0 {
		cfg.HomeID = 0xC0FFEE01
	}
	if cfg.NodeID == 0 {
		cfg.NodeID = 1
	}
	if cfg.Deviation <= 0 {
		return nil, fmt.Errorf("zwave: deviation must be positive")
	}
	if cfg.PreambleLen < 2 {
		return nil, fmt.Errorf("zwave: preamble length %d too short", cfg.PreambleLen)
	}
	if cfg.MaxPayload < 1 || cfg.MaxPayload > 170 {
		return nil, fmt.Errorf("zwave: max payload %d out of range", cfg.MaxPayload)
	}
	bitRate := 40e3
	switch cfg.Rate {
	case R1:
		bitRate = 9.6e3 * 2 // chip rate after Manchester
	case R3:
		bitRate = 100e3
	}
	return &Radio{
		cfg:   cfg,
		modem: fsk.Modem{BitRate: bitRate, Deviation: cfg.Deviation},
	}, nil
}

// Default returns the R2 configuration used in the paper reproduction.
func Default() *Radio {
	r, err := New(Config{})
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements phy.Technology.
func (r *Radio) Name() string { return "zwave" }

// Class implements phy.Technology.
func (r *Radio) Class() phy.Class { return phy.ClassFSK }

// Config returns the active configuration.
func (r *Radio) Config() Config { return r.cfg }

// Tones implements phy.ToneTechnology.
func (r *Radio) Tones() []float64 {
	return []float64{r.cfg.CenterOffset - r.cfg.Deviation, r.cfg.CenterOffset + r.cfg.Deviation}
}

// Info implements phy.Technology.
func (r *Radio) Info() phy.Info {
	return phy.Info{
		Name:       "zwave",
		Modulation: "BFSK,GFSK",
		Sync:       "m bytes",
		Preamble:   "'01010101'",
		MaxPayload: r.cfg.MaxPayload,
	}
}

// BitRate implements phy.Technology: payload bits per second (after line
// coding).
func (r *Radio) BitRate() float64 {
	switch r.cfg.Rate {
	case R1:
		return 9.6e3
	case R3:
		return 100e3
	default:
		return 40e3
	}
}

// lineCode applies the rate profile's line coding to logical bits.
func (r *Radio) lineCode(logical []byte) []byte {
	if r.cfg.Rate == R1 {
		return bits.Manchester(logical)
	}
	return logical
}

// lineDecode inverts lineCode.
func (r *Radio) lineDecode(air []byte) []byte {
	if r.cfg.Rate == R1 {
		decoded, _ := bits.ManchesterDecode(air)
		return decoded
	}
	return air
}

// airBitsPerLogical is the line-code expansion factor.
func (r *Radio) airBitsPerLogical() int {
	if r.cfg.Rate == R1 {
		return 2
	}
	return 1
}

// headerAirBits returns the on-air bits of preamble + SOF.
func (r *Radio) headerAirBits() []byte {
	hdr := make([]byte, 0, r.cfg.PreambleLen+1)
	for i := 0; i < r.cfg.PreambleLen; i++ {
		hdr = append(hdr, 0x55)
	}
	hdr = append(hdr, sof)
	return r.lineCode(bits.Unpack(hdr))
}

// Preamble implements phy.Technology.
func (r *Radio) Preamble(fs float64) []complex128 {
	w, err := r.modem.ModulateBits(r.headerAirBits(), fs)
	if err != nil {
		panic(err)
	}
	return dsp.Mix(w, r.cfg.CenterOffset, 0, fs)
}

// mpdu assembles the G.9959-style MPDU for a payload: HomeID(4) SrcID(1)
// FrameControl(2) Length(1) DstID(1) payload checksum(1). Length covers the
// whole MPDU including the checksum.
func (r *Radio) mpdu(payload []byte, dst byte) []byte {
	total := 4 + 1 + 2 + 1 + 1 + len(payload) + 1
	out := make([]byte, 0, total)
	out = append(out,
		byte(r.cfg.HomeID>>24), byte(r.cfg.HomeID>>16), byte(r.cfg.HomeID>>8), byte(r.cfg.HomeID),
		r.cfg.NodeID,
		0x41, 0x01, // frame control: singlecast, sequence 1
		byte(total),
		dst,
	)
	out = append(out, payload...)
	out = append(out, bits.CRC8XOR(0xFF, out))
	return out
}

// Modulate implements phy.Technology. Frames are addressed to node 0xFF
// (broadcast).
func (r *Radio) Modulate(payload []byte, fs float64) ([]complex128, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("zwave: empty payload")
	}
	if len(payload) > r.cfg.MaxPayload {
		return nil, fmt.Errorf("zwave: payload %d exceeds max %d", len(payload), r.cfg.MaxPayload)
	}
	w, err := r.modulateBaseMPDU(r.mpdu(payload, 0xFF), fs)
	if err != nil {
		return nil, err
	}
	return dsp.Mix(w, r.cfg.CenterOffset, 0, fs), nil
}

// modulateBaseMPDU produces the waveform of an already-assembled MPDU before
// the center-offset shift: Modulate shifts it, and Demodulate fits it
// against its downshifted window, reconstructing the received frame
// bit-exactly (its original HomeID included).
func (r *Radio) modulateBaseMPDU(mpdu []byte, fs float64) ([]complex128, error) {
	air := append([]byte{}, r.headerAirBits()...)
	air = append(air, r.lineCode(bits.Unpack(mpdu))...)
	return r.modem.ModulateBits(air, fs)
}

// MaxPacketSamples implements phy.Technology.
func (r *Radio) MaxPacketSamples(fs float64) int {
	mpduBytes := 4 + 1 + 2 + 1 + 1 + r.cfg.MaxPayload + 1
	nAir := len(r.headerAirBits()) + 8*mpduBytes*r.airBitsPerLogical()
	return r.modem.NumSamples(nAir, fs)
}

// Demodulate implements phy.Technology.
func (r *Radio) Demodulate(rx []complex128, fs float64) (*phy.Frame, error) {
	if r.cfg.CenterOffset != 0 {
		rx = dsp.Mix(dsp.Clone(rx), -r.cfg.CenterOffset, 0, fs)
	}
	const minLen = 4 + 1 + 2 + 1 + 1 + 1
	// parse reads the fixed 8-byte MPDU prefix to learn the length, then
	// the whole MPDU and its checksum.
	parse := func(d fsk.Decisions) ([]byte, bool, error) {
		prefix := bits.Pack(r.lineDecode(d.Bits(0, 8*8*r.airBitsPerLogical())))
		if len(prefix) < 8 {
			return nil, false, fmt.Errorf("%w: zwave prefix truncated", phy.ErrNoFrame)
		}
		total := int(prefix[7])
		if total < minLen || total > minLen+r.cfg.MaxPayload {
			return nil, false, fmt.Errorf("%w: zwave MPDU length %d invalid", phy.ErrNoFrame, total)
		}
		mpdu := bits.Pack(r.lineDecode(d.Bits(0, 8*total*r.airBitsPerLogical())))
		if len(mpdu) < total {
			return nil, false, fmt.Errorf("%w: zwave MPDU truncated", phy.ErrNoFrame)
		}
		mpdu = mpdu[:total]
		return mpdu, bits.CRC8XOR(0xFF, mpdu[:total-1]) == mpdu[total-1], nil
	}
	mpdu, crcOK, start, cfo, err := r.modem.Receive(rx, fs, "zwave", r.headerAirBits(),
		10*8*r.airBitsPerLogical(), 8*r.cfg.PreambleLen*r.airBitsPerLogical(), parse)
	if err != nil {
		return nil, err
	}
	payload := mpdu[9 : len(mpdu)-1]
	frame := &phy.Frame{
		Tech:    "zwave",
		Payload: append([]byte{}, payload...),
		CRCOK:   crcOK,
		Bits:    len(payload) * 8,
		Offset:  start,
		CFO:     cfo,
	}
	if crcOK {
		// rx is the downshifted view here, so reconstruct at baseband.
		if ref, err := r.modulateBaseMPDU(mpdu, fs); err == nil {
			frame.Fit(rx, ref)
		}
	}
	return frame, nil
}

var _ phy.ToneTechnology = (*Radio)(nil)
