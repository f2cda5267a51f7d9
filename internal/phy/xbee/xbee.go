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
	if err := r.modem.Validate(fs); err != nil {
		return nil, err
	}
	hdrAirBits := r.headerAirBits()
	if len(rx) < r.modem.NumSamples(len(hdrAirBits), fs)+r.modem.NumSamples(8*3, fs) {
		return nil, fmt.Errorf("%w: xbee window too short", phy.ErrNoFrame)
	}
	disc := r.modem.Discriminate(rx, fs)
	start, quality := r.modem.SyncDisc(disc, hdrAirBits, fs)
	if quality < 0.35 {
		return nil, fmt.Errorf("%w: xbee preamble not found (quality %.3f)", phy.ErrNoFrame, quality)
	}
	// CFO from the DC-balanced 0x55 preamble run.
	cfo := r.modem.EstimateCFO(disc, start, 8*r.cfg.PreambleLen, fs)

	hdrBits := len(hdrAirBits)
	dataStart := start + r.modem.NumSamples(hdrBits, fs)

	// parse runs the frame state machine over one bit-decision strategy.
	parse := func(demodBits func(at, n int) []byte) (payload []byte, length int, crcOK bool, err error) {
		lenBits := demodBits(dataStart, 8)
		length = int(bits.PackLSB(lenBits)[0])
		if length == 0 || length > r.cfg.MaxPayload {
			return nil, 0, false, fmt.Errorf("%w: xbee length %d invalid", phy.ErrNoFrame, length)
		}
		bodyBits := 8 * (length + 2)
		bodyStart := dataStart + r.modem.NumSamples(8, fs)
		raw := demodBits(bodyStart, bodyBits)
		body := bits.PackLSB(raw)
		w := bits.NewDC9Whitener()
		body = w.ApplyBytes(body)
		payload = body[:length]
		gotCRC := uint16(body[length]) | uint16(body[length+1])<<8
		return payload, length, gotCRC == bits.CRC16IBM(payload), nil
	}
	// Primary path: FM discriminator (best in clean AWGN). Fallback:
	// noncoherent tone detection, which survives residual interference
	// left behind by the cloud's kill filters.
	payload, length, crcOK, perr := parse(func(at, n int) []byte {
		return r.modem.DemodulateBits(disc, at, n, fs, cfo)
	})
	if perr != nil || !crcOK {
		p2, l2, ok2, err2 := parse(func(at, n int) []byte {
			return r.modem.DemodulateBitsTone(rx, at, n, fs, cfo)
		})
		if err2 == nil && ok2 {
			payload, length, crcOK, perr = p2, l2, ok2, nil
		}
	}
	if perr != nil {
		return nil, perr
	}

	frame := &phy.Frame{
		Tech:    "xbee",
		Payload: payload,
		CRCOK:   crcOK,
		Bits:    length * 8,
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
