// Package xbee implements an XBee-868-class GFSK PHY in the style of IEEE
// 802.15.4g SUN FSK: a 0x55 preamble, a 16-bit start-of-frame delimiter, a
// one-byte length header, PN9 payload whitening and a CRC-16 frame check
// sequence, transmitted GFSK (BT = 0.5) with ±10 kHz deviation at 20 kb/s.
// Bits go on the air least-significant first, as in 802.15.4.
package xbee

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/phy"
	"repro/internal/phy/fsk"
)

// Config parameterizes the PHY. Zero values take defaults via New.
type Config struct {
	BitRate     float64 // air bit rate (default 20 kb/s)
	Deviation   float64 // FSK deviation in Hz (default 10 kHz)
	BT          float64 // Gaussian shaping product (default 0.5)
	PreambleLen int     // preamble bytes of 0x55 (default 4, per Table 1)
	MaxPayload  int     // bytes (default 96)
}

// Radio is an XBee PHY instance, safe for concurrent use.
type Radio struct {
	cfg   Config
	modem fsk.Modem
}

// sfd is the 16-bit start-of-frame delimiter (802.15.4g SUN FSK SFD value
// for uncoded frames).
var sfd = [2]byte{0x90, 0x4E}

// New validates cfg, fills defaults, and returns a Radio.
func New(cfg Config) (*Radio, error) {
	if cfg.BitRate == 0 {
		cfg.BitRate = 20e3
	}
	if cfg.Deviation == 0 {
		cfg.Deviation = 10e3
	}
	if cfg.BT == 0 {
		cfg.BT = 0.5
	}
	if cfg.PreambleLen == 0 {
		cfg.PreambleLen = 4
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 96
	}
	if cfg.BitRate <= 0 || cfg.Deviation <= 0 {
		return nil, fmt.Errorf("xbee: bit rate and deviation must be positive")
	}
	if cfg.PreambleLen < 2 {
		return nil, fmt.Errorf("xbee: preamble length %d too short", cfg.PreambleLen)
	}
	if cfg.MaxPayload < 1 || cfg.MaxPayload > 255 {
		return nil, fmt.Errorf("xbee: max payload %d out of range", cfg.MaxPayload)
	}
	return &Radio{
		cfg:   cfg,
		modem: fsk.Modem{BitRate: cfg.BitRate, Deviation: cfg.Deviation, BT: cfg.BT},
	}, nil
}

// Default returns the configuration used in the paper reproduction.
func Default() *Radio {
	r, err := New(Config{})
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements phy.Technology.
func (r *Radio) Name() string { return "xbee" }

// Class implements phy.Technology.
func (r *Radio) Class() phy.Class { return phy.ClassFSK }

// Config returns the active configuration.
func (r *Radio) Config() Config { return r.cfg }

// Tones implements phy.ToneTechnology.
func (r *Radio) Tones() []float64 { return []float64{-r.cfg.Deviation, +r.cfg.Deviation} }

// Info implements phy.Technology.
func (r *Radio) Info() phy.Info {
	return phy.Info{
		Name:       "xbee",
		Modulation: "GFSK",
		Sync:       "4 bytes",
		Preamble:   "'01010101'",
		MaxPayload: r.cfg.MaxPayload,
	}
}

// BitRate implements phy.Technology.
func (r *Radio) BitRate() float64 { return r.cfg.BitRate }

// headerAirBits returns the on-air bits of preamble + SFD.
func (r *Radio) headerAirBits() []byte {
	hdr := make([]byte, 0, r.cfg.PreambleLen+2)
	for i := 0; i < r.cfg.PreambleLen; i++ {
		hdr = append(hdr, 0x55)
	}
	hdr = append(hdr, sfd[0], sfd[1])
	return bits.UnpackLSB(hdr)
}

// Preamble implements phy.Technology: the preamble + SFD waveform.
func (r *Radio) Preamble(fs float64) []complex128 {
	w, err := r.modem.ModulateBits(r.headerAirBits(), fs)
	if err != nil {
		panic(err)
	}
	return w
}

// frameAirBits assembles the complete on-air bit stream of a frame.
func (r *Radio) frameAirBits(payload []byte) []byte {
	crc := bits.CRC16IBM(payload)
	body := append(append([]byte{}, payload...), byte(crc), byte(crc>>8))
	w := bits.NewDC9Whitener()
	body = w.ApplyBytes(body)
	frame := append([]byte{byte(len(payload))}, body...)
	air := append([]byte{}, r.headerAirBits()...)
	return append(air, bits.UnpackLSB(frame)...)
}

// Modulate implements phy.Technology.
func (r *Radio) Modulate(payload []byte, fs float64) ([]complex128, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("xbee: empty payload")
	}
	if len(payload) > r.cfg.MaxPayload {
		return nil, fmt.Errorf("xbee: payload %d exceeds max %d", len(payload), r.cfg.MaxPayload)
	}
	return r.modem.ModulateBits(r.frameAirBits(payload), fs)
}

// MaxPacketSamples implements phy.Technology.
func (r *Radio) MaxPacketSamples(fs float64) int {
	nBits := len(r.headerAirBits()) + 8*(1+r.cfg.MaxPayload+2)
	return r.modem.NumSamples(nBits, fs)
}

// Demodulate implements phy.Technology.
func (r *Radio) Demodulate(rx []complex128, fs float64) (*phy.Frame, error) {
	// parse reads the length byte, then the whitened payload and its CRC.
	parse := func(d fsk.Decisions) ([]byte, bool, error) {
		length := int(bits.PackLSB(d.Bits(0, 8))[0])
		if length == 0 || length > r.cfg.MaxPayload {
			return nil, false, fmt.Errorf("%w: xbee length %d invalid", phy.ErrNoFrame, length)
		}
		body := bits.PackLSB(d.Bits(r.modem.NumSamples(8, fs), 8*(length+2)))
		w := bits.NewDC9Whitener()
		body = w.ApplyBytes(body)
		payload := body[:length]
		gotCRC := uint16(body[length]) | uint16(body[length+1])<<8
		return payload, gotCRC == bits.CRC16IBM(payload), nil
	}
	// The CFO is read off the DC-balanced 0x55 preamble run.
	payload, crcOK, start, cfo, err := r.modem.Receive(rx, fs, "xbee", r.headerAirBits(), 8*3, 8*r.cfg.PreambleLen, parse)
	if err != nil {
		return nil, err
	}
	frame := &phy.Frame{
		Tech:    "xbee",
		Payload: payload,
		CRCOK:   crcOK,
		Bits:    len(payload) * 8,
		Offset:  start,
		CFO:     cfo,
	}
	if crcOK {
		if ref, err := r.Modulate(payload, fs); err == nil {
			frame.Fit(rx, ref)
		}
	}
	return frame, nil
}

var _ phy.ToneTechnology = (*Radio)(nil)
