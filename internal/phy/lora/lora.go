// Package lora implements a LoRa-style chirp-spread-spectrum PHY: chirp
// modulation with configurable spreading factor and bandwidth, Gray
// mapping, diagonal interleaving, Hamming forward error correction,
// payload whitening, an explicit header and a 16-bit payload CRC.
//
// The transmit chain mirrors the public reverse-engineered structure of the
// Semtech PHY (as in gr-lora): payload bytes are whitened, split into
// nibbles, Hamming-encoded at the configured code rate, interleaved
// diagonally in blocks of SF codewords, Gray-mapped and sent as cyclically
// shifted upchirps. Known simplifications relative to silicon, documented
// here and in DESIGN.md: the header block is coded at CR 4/8 but full SF
// (no low-data-rate reduction), and the two network-sync symbols are
// folded into the SFD downchirps.
package lora

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bits"
	"repro/internal/dsp"
	"repro/internal/phy"
)

// Config parameterizes the PHY. The zero value is not valid; use New.
type Config struct {
	SF          int     // spreading factor, 7..12
	Bandwidth   float64 // chirp bandwidth in Hz (125e3 typical)
	CR          int     // coding redundancy 1..4 (rate 4/(4+CR))
	PreambleLen int     // number of preamble upchirps (8 typical)
	MaxPayload  int     // largest payload accepted, bytes
	// ImplicitHeader enables LoRa's implicit (fixed-length) header mode:
	// the explicit header block is omitted on air and both ends agree on
	// the payload length out of band. ImplicitLength is that agreed length
	// (required when ImplicitHeader is set).
	ImplicitHeader bool
	ImplicitLength int
}

// Radio is a LoRa PHY instance. It is safe for concurrent use.
type Radio struct {
	cfg Config
}

// New validates cfg and returns a Radio. Defaults: CR=4, PreambleLen=8,
// MaxPayload=64.
func New(cfg Config) (*Radio, error) {
	if cfg.SF < 6 || cfg.SF > 12 {
		return nil, fmt.Errorf("lora: SF %d out of range 6..12", cfg.SF)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("lora: bandwidth must be positive")
	}
	if cfg.CR == 0 {
		cfg.CR = 4
	}
	if cfg.CR < 1 || cfg.CR > 4 {
		return nil, fmt.Errorf("lora: CR %d out of range 1..4", cfg.CR)
	}
	if cfg.PreambleLen == 0 {
		cfg.PreambleLen = 8
	}
	if cfg.PreambleLen < 4 {
		return nil, fmt.Errorf("lora: preamble length %d too short (min 4)", cfg.PreambleLen)
	}
	if cfg.MaxPayload == 0 {
		cfg.MaxPayload = 64
	}
	if cfg.MaxPayload < 1 || cfg.MaxPayload > 255 {
		return nil, fmt.Errorf("lora: max payload %d out of range 1..255", cfg.MaxPayload)
	}
	if cfg.ImplicitHeader {
		if cfg.ImplicitLength < 1 || cfg.ImplicitLength > cfg.MaxPayload {
			return nil, fmt.Errorf("lora: implicit header requires a length in 1..%d", cfg.MaxPayload)
		}
	}
	return &Radio{cfg: cfg}, nil
}

// Default returns the configuration used throughout the paper reproduction:
// SF7, 125 kHz, CR 4/8.
func Default() *Radio {
	r, err := New(Config{SF: 7, Bandwidth: 125e3, CR: 4, PreambleLen: 8, MaxPayload: 64})
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements phy.Technology.
func (r *Radio) Name() string { return "lora" }

// Class implements phy.Technology.
func (r *Radio) Class() phy.Class { return phy.ClassCSS }

// Chirp implements phy.ChirpTechnology: the base chirp, symbol 0.
func (r *Radio) Chirp(up bool, fs float64) []complex128 { return r.chirp(up, 0, fs) }

// Config returns the active configuration.
func (r *Radio) Config() Config { return r.cfg }

// Info implements phy.Technology.
func (r *Radio) Info() phy.Info {
	return phy.Info{
		Name:       "lora",
		Modulation: "CSS",
		Sync:       "2.25 downchirp SFD",
		Preamble:   "sequence of 1s (upchirps)",
		MaxPayload: r.cfg.MaxPayload,
	}
}

// BitRate implements phy.Technology: SF · BW/2^SF · 4/(4+CR) bits/s.
func (r *Radio) BitRate() float64 {
	n := float64(int(1) << uint(r.cfg.SF))
	return float64(r.cfg.SF) * r.cfg.Bandwidth / n * 4 / float64(4+r.cfg.CR)
}

// osr returns the integer oversampling ratio for the given sample rate.
func (r *Radio) osr(fs float64) (int, error) {
	ratio := fs / r.cfg.Bandwidth
	o := int(math.Round(ratio))
	if o < 1 || math.Abs(ratio-float64(o)) > 1e-9 {
		return 0, fmt.Errorf("lora: sample rate %g is not an integer multiple of bandwidth %g", fs, r.cfg.Bandwidth)
	}
	return o, nil
}

// chips returns 2^SF.
func (r *Radio) chips() int { return 1 << uint(r.cfg.SF) }

// symbolSamples returns the samples per chirp symbol at fs.
func (r *Radio) symbolSamples(fs float64) int {
	o, err := r.osr(fs)
	if err != nil {
		panic(err)
	}
	return r.chips() * o
}

// chirp synthesizes one chirp symbol. up selects up or down chirp; sym is
// the cyclic shift (data symbol) in [0, 2^SF). The chirp has unit modulus.
func (r *Radio) chirp(up bool, sym int, fs float64) []complex128 {
	o, err := r.osr(fs)
	if err != nil {
		panic(err)
	}
	n := r.chips() * o
	bw := r.cfg.Bandwidth
	out := make([]complex128, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		// instantaneous frequency, wrapping across the band
		idx := (sym*o + i) % n
		f := -bw/2 + bw*float64(idx)/float64(n)
		if !up {
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

// Preamble implements phy.Technology: PreambleLen base upchirps followed by
// the 2.25-symbol downchirp SFD.
func (r *Radio) Preamble(fs float64) []complex128 {
	n := r.symbolSamples(fs)
	up := r.chirp(true, 0, fs)
	down := r.chirp(false, 0, fs)
	out := make([]complex128, 0, (r.cfg.PreambleLen+3)*n)
	for i := 0; i < r.cfg.PreambleLen; i++ {
		out = append(out, up...)
	}
	out = append(out, down...)
	out = append(out, down...)
	out = append(out, down[:n/4]...)
	return out
}

// preambleSamples is the length of Preamble for n samples per symbol.
func (r *Radio) preambleSamples(n int) int { return (r.cfg.PreambleLen+2)*n + n/4 }

// headerBytes builds the 3-byte explicit header: length, flags (CR and CRC
// present) and an XOR checksum.
func headerBytes(payloadLen, cr int) [3]byte {
	h0 := byte(payloadLen)
	h1 := byte(cr<<4) | 0x01
	return [3]byte{h0, h1, h0 ^ h1 ^ 0xA5}
}

// parseHeader validates and splits a decoded header.
func parseHeader(h []byte) (payloadLen, cr int, err error) {
	if len(h) < 3 {
		return 0, 0, fmt.Errorf("lora: short header")
	}
	if h[0]^h[1]^0xA5 != h[2] {
		return 0, 0, fmt.Errorf("lora: header checksum mismatch")
	}
	cr = int(h[1] >> 4)
	if cr < 1 || cr > 4 {
		return 0, 0, fmt.Errorf("lora: header CR %d invalid", cr)
	}
	return int(h[0]), cr, nil
}

// encodeBlockSymbols Hamming-encodes nibbles at redundancy cr, packs them
// into interleaver blocks of SF codewords (zero-padding the last block) and
// returns the Gray-demapped chirp symbols.
func (r *Radio) encodeBlockSymbols(nibbles []byte, cr int) []uint32 {
	sf := r.cfg.SF
	cw := 4 + cr
	var symbols []uint32
	for start := 0; start < len(nibbles); start += sf {
		block := make([]byte, 0, sf*cw)
		for row := 0; row < sf; row++ {
			var nib byte
			if start+row < len(nibbles) {
				nib = nibbles[start+row]
			}
			block = append(block, bits.HammingEncodeNibble(nib, cr)...)
		}
		inter := bits.DiagonalInterleave(block, sf, cw)
		for _, g := range bits.SymbolsFromBits(inter, sf) {
			symbols = append(symbols, bits.GrayDecode(g)%uint32(r.chips()))
		}
	}
	return symbols
}

// decodeBlockSymbols inverts encodeBlockSymbols for nBlocks blocks taken
// from symbols, returning the recovered nibbles plus FEC statistics.
func (r *Radio) decodeBlockSymbols(symbols []uint32, cr, nBlocks int) (nibbles []byte, corrections, failures int, err error) {
	sf := r.cfg.SF
	cw := 4 + cr
	if len(symbols) < nBlocks*cw {
		return nil, 0, 0, fmt.Errorf("lora: need %d symbols, have %d", nBlocks*cw, len(symbols))
	}
	for b := 0; b < nBlocks; b++ {
		gray := make([]uint32, cw)
		for i := 0; i < cw; i++ {
			gray[i] = bits.GrayEncode(symbols[b*cw+i])
		}
		inter := bits.BitsFromSymbols(gray, sf)
		block := bits.DiagonalDeinterleave(inter, sf, cw)
		for row := 0; row < sf; row++ {
			nib, corr, bad := bits.HammingDecodeNibble(block[row*cw:(row+1)*cw], cr)
			if corr {
				corrections++
			}
			if bad {
				failures++
			}
			nibbles = append(nibbles, nib)
		}
	}
	return nibbles, corrections, failures, nil
}

// nibblesOf splits bytes into nibbles, high nibble first.
func nibblesOf(data []byte) []byte {
	out := make([]byte, 0, 2*len(data))
	for _, b := range data {
		out = append(out, b>>4, b&0x0F)
	}
	return out
}

// bytesOf joins nibbles (high first); a trailing odd nibble is dropped.
func bytesOf(nibbles []byte) []byte {
	out := make([]byte, 0, len(nibbles)/2)
	for i := 0; i+1 < len(nibbles); i += 2 {
		out = append(out, nibbles[i]<<4|nibbles[i+1]&0x0F)
	}
	return out
}

// payloadSymbols returns the number of data chirp symbols for a payload of
// the given length at redundancy cr: one CR4/8 header block plus payload
// blocks (payload + CRC16 nibbles).
func (r *Radio) payloadSymbols(payloadLen, cr int) int {
	sf := r.cfg.SF
	headerSyms := 8 // one block at cr=4
	if r.cfg.ImplicitHeader {
		headerSyms = 0
	}
	plNibbles := 2 * (payloadLen + 2)
	blocks := (plNibbles + sf - 1) / sf
	return headerSyms + blocks*(4+cr)
}

// Modulate implements phy.Technology.
func (r *Radio) Modulate(payload []byte, fs float64) ([]complex128, error) {
	if len(payload) > r.cfg.MaxPayload {
		return nil, fmt.Errorf("lora: payload %d exceeds max %d", len(payload), r.cfg.MaxPayload)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("lora: empty payload")
	}
	if _, err := r.osr(fs); err != nil {
		return nil, err
	}
	cr := r.cfg.CR
	var headerSymbols []uint32
	if r.cfg.ImplicitHeader {
		if len(payload) != r.cfg.ImplicitLength {
			return nil, fmt.Errorf("lora: implicit mode requires exactly %d payload bytes", r.cfg.ImplicitLength)
		}
	} else {
		hdr := headerBytes(len(payload), cr)
		headerSymbols = r.encodeBlockSymbols(nibblesOf(hdr[:]), 4)
	}

	crc := bits.CRC16CCITT(payload)
	body := append(append([]byte{}, payload...), byte(crc>>8), byte(crc))
	w := bits.NewLoRaWhitener()
	body = w.ApplyBytes(body)
	bodySymbols := r.encodeBlockSymbols(nibblesOf(body), cr)

	out := append([]complex128{}, r.Preamble(fs)...)
	for _, s := range headerSymbols {
		out = append(out, r.chirp(true, int(s), fs)...)
	}
	for _, s := range bodySymbols {
		out = append(out, r.chirp(true, int(s), fs)...)
	}
	return out, nil
}

// demodSymbol dechirps one aligned symbol window and returns the most
// likely symbol value together with the complex FFT value at its peak (used
// for CFO tracking and gain estimation).
func (r *Radio) demodSymbol(window, downRef []complex128) (uint32, complex128) {
	n := len(downRef)
	buf := make([]complex128, n)
	for i := 0; i < n && i < len(window); i++ {
		buf[i] = window[i] * downRef[i]
	}
	dsp.FFTInPlace(buf)
	chips := r.chips()
	best, bestMag, bestVal := 0, -1.0, complex(0, 0)
	for s := 0; s < chips; s++ {
		alias := (s - chips + n) % n
		v := buf[s] + buf[alias]
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > bestMag {
			best, bestMag, bestVal = s, m, v
		}
	}
	return uint32(best), bestVal
}

// sync locates the packet start using non-coherent per-symbol correlation:
// the magnitudes of single upchirp correlations are summed at preamble
// spacing, plus downchirp correlations at the SFD positions. Summing
// magnitudes (not complex values) makes the metric robust to carrier
// frequency offset, and the opposite-slope SFD resolves the preamble's
// symbol-period ambiguity. A small local refinement of the up- and
// down-chirp alignments then decouples timing from CFO (a frequency offset
// shifts upchirp peaks one way and downchirp peaks the other).
// up is the base upchirp at fs.
func (r *Radio) sync(rx, up []complex128, fs float64) (start int, ok bool) {
	n := len(up)
	p := r.cfg.PreambleLen
	ms := dsp.NormalizedCorrelateAll(rx, up, r.chirp(false, 0, fs))
	mUp, mDown := ms[0], ms[1]
	span := (p + 2) * n
	limit := len(mUp) - span
	if limit <= 0 || len(mDown) < span {
		return 0, false
	}
	score := func(t int) float64 {
		var s float64
		for k := 0; k < p; k++ {
			s += mUp[t+k*n]
		}
		s += mDown[t+p*n] + mDown[t+(p+1)*n]
		return s / float64(p+2)
	}
	bestT, bestS := -1, 0.0
	for t := 0; t <= limit; t++ {
		if s := score(t); s > bestS {
			bestT, bestS = t, s
		}
	}
	if bestT < 0 || bestS < 0.06 {
		return 0, false
	}
	// Refine: CFO displaces upchirp peaks by +δ and downchirp peaks by -δ
	// samples; the true start is the midpoint of the two refined alignments.
	refine := func(metric []float64, offsets []int, around, radius int) int {
		best, bestV := around, -1.0
		for t := around - radius; t <= around+radius; t++ {
			if t < 0 {
				continue
			}
			var v float64
			valid := true
			for _, o := range offsets {
				if t+o >= len(metric) {
					valid = false
					break
				}
				v += metric[t+o]
			}
			if valid && v > bestV {
				best, bestV = t, v
			}
		}
		return best
	}
	upOffsets := make([]int, p)
	for k := range upOffsets {
		upOffsets[k] = k * n
	}
	downOffsets := []int{p * n, (p + 1) * n}
	o, _ := r.osr(fs)
	radius := 2 * o
	tUp := refine(mUp, upOffsets, bestT, radius)
	tDown := refine(mDown, downOffsets, bestT, radius)
	return (tUp + tDown) / 2, true
}

// Demodulate implements phy.Technology. The packet start must lie within
// the window; sync is recovered by correlating against the full preamble.
func (r *Radio) Demodulate(rx []complex128, fs float64) (*phy.Frame, error) {
	if _, err := r.osr(fs); err != nil {
		return nil, err
	}
	up := r.chirp(true, 0, fs)
	n := len(up)
	dataStart := r.preambleSamples(n)
	if len(rx) < dataStart+8*n {
		return nil, fmt.Errorf("%w: lora window too short", phy.ErrNoFrame)
	}
	start, ok := r.sync(rx, up, fs)
	if !ok {
		return nil, fmt.Errorf("%w: lora preamble not found", phy.ErrNoFrame)
	}

	downRef := dsp.Conj(up)

	// Coarse CFO: with timing fixed by the up/down-chirp sync, the
	// dechirped preamble peak bin measures the integer part of the carrier
	// offset in units of BW/2^SF.
	chips := r.chips()
	binWidth := r.cfg.Bandwidth / float64(chips)
	bins := make([]int, 0, r.cfg.PreambleLen)
	for k := 0; k < r.cfg.PreambleLen; k++ {
		off := start + k*n
		if off+n > len(rx) {
			break
		}
		s, _ := r.demodSymbol(rx[off:off+n], downRef)
		b := int(s)
		if b > chips/2 {
			b -= chips
		}
		bins = append(bins, b)
	}
	sort.Ints(bins)
	coarse := 0.0
	if len(bins) > 0 {
		coarse = float64(bins[len(bins)/2]) * binWidth
	}

	// Fine CFO from the phase progression of the dechirped preamble peaks.
	workAll := dsp.Clone(rx[start:])
	dsp.Mix(workAll, -coarse, 0, fs)
	var acc, prev complex128
	for k := 0; k < r.cfg.PreambleLen; k++ {
		off := k * n
		if off+n > len(workAll) {
			break
		}
		_, v := r.demodSymbol(workAll[off:off+n], downRef)
		if k > 0 {
			acc += v * complex(real(prev), -imag(prev))
		}
		prev = v
	}
	symbolDur := float64(n) / fs
	fine := math.Atan2(imag(acc), real(acc)) / (2 * math.Pi * symbolDur)
	cfo := coarse + fine

	// CFO-correct a working copy from the sync point onward.
	work := dsp.Clone(rx[start:])
	dsp.Mix(work, -cfo, 0, fs)

	readSymbols := func(from, count int) ([]uint32, error) {
		if from+count*n > len(work) {
			return nil, fmt.Errorf("%w: lora window truncated", phy.ErrNoFrame)
		}
		out := make([]uint32, count)
		for i := 0; i < count; i++ {
			s, _ := r.demodSymbol(work[from+i*n:from+(i+1)*n], downRef)
			out[i] = s
		}
		return out, nil
	}

	var payloadLen, cr, hCorr int
	bodyStart := dataStart
	if r.cfg.ImplicitHeader {
		payloadLen, cr = r.cfg.ImplicitLength, r.cfg.CR
	} else {
		headerSyms, err := readSymbols(dataStart, 8)
		if err != nil {
			return nil, err
		}
		headerNibbles, hc, hFail, err := r.decodeBlockSymbols(headerSyms, 4, 1)
		if err != nil {
			return nil, err
		}
		hCorr = hc
		hdr := bytesOf(headerNibbles)
		payloadLen, cr, err = parseHeader(hdr)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", phy.ErrNoFrame, err)
		}
		if payloadLen == 0 || payloadLen > r.cfg.MaxPayload {
			return nil, fmt.Errorf("%w: lora header length %d invalid", phy.ErrNoFrame, payloadLen)
		}
		_ = hFail
		bodyStart = dataStart + 8*n
	}

	sf := r.cfg.SF
	plNibbles := 2 * (payloadLen + 2)
	blocks := (plNibbles + sf - 1) / sf
	bodySyms, err := readSymbols(bodyStart, blocks*(4+cr))
	if err != nil {
		return nil, err
	}
	bodyNibbles, bCorr, _, err := r.decodeBlockSymbols(bodySyms, cr, blocks)
	if err != nil {
		return nil, err
	}
	body := bytesOf(bodyNibbles)
	if len(body) < payloadLen+2 {
		return nil, fmt.Errorf("%w: lora body truncated", phy.ErrNoFrame)
	}
	w := bits.NewLoRaWhitener()
	body = w.ApplyBytes(body[:payloadLen+2])
	payload := body[:payloadLen]
	gotCRC := uint16(body[payloadLen])<<8 | uint16(body[payloadLen+1])
	crcOK := gotCRC == bits.CRC16CCITT(payload)

	frame := &phy.Frame{
		Tech:      "lora",
		Payload:   payload,
		CRCOK:     crcOK,
		Bits:      payloadLen * 8,
		Offset:    start,
		CFO:       cfo,
		Corrected: hCorr + bCorr,
	}
	if crcOK {
		if ref, err := r.Modulate(payload, fs); err == nil {
			frame.Fit(rx, ref)
		}
	}
	return frame, nil
}

// MaxPacketSamples implements phy.Technology.
func (r *Radio) MaxPacketSamples(fs float64) int {
	n := r.symbolSamples(fs)
	preSyms := float64(r.cfg.PreambleLen) + 2.25
	dataSyms := r.payloadSymbols(r.cfg.MaxPayload, r.cfg.CR)
	return int(math.Ceil(preSyms*float64(n))) + dataSyms*n
}

var _ phy.ChirpTechnology = (*Radio)(nil)
