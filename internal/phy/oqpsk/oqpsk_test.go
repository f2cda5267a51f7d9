package oqpsk

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/rng"
)

const fs = 1e6

func TestChipTableProperties(t *testing.T) {
	// All 16 sequences distinct.
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if chipTable[a] == chipTable[b] {
				t.Fatalf("sequences %d and %d identical", a, b)
			}
		}
	}
	// Every sequence is balanced to within a few chips and has low cross-
	// correlation with the others (quasi-orthogonality).
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a == b {
				continue
			}
			agree := 0
			for i := 0; i < 32; i++ {
				if chipTable[a][i] == chipTable[b][i] {
					agree++
				}
			}
			// |correlation| = |2*agree-32|; 802.15.4 codes keep this low
			if d := agree - 16; d < -8 || d > 8 {
				t.Fatalf("codes %d,%d agreement %d of 32", a, b, agree)
			}
		}
	}
}

// oldCodeWaveforms is the O-QPSK shaper KILL-CODES kept for itself before
// it asked the technology for its code waveforms: each code rendered over
// one symbol, even chips on I, odd on Q, trailing half-pulse cut.
func oldCodeWaveforms(codes [][]byte, chipRate, fs float64) [][]complex128 {
	spcF := fs / chipRate
	spc := int(math.Round(spcF))
	if spc < 2 || math.Abs(spcF-float64(spc)) > 1e-9 {
		return nil
	}
	nChips := len(codes[0])
	symLen := nChips * spc
	pulse := make([]float64, 2*spc)
	for t := range pulse {
		pulse[t] = math.Sin(math.Pi * float64(t) / float64(2*spc))
	}
	out := make([][]complex128, len(codes))
	for ci, code := range codes {
		w := make([]complex128, symLen)
		for i, chip := range code {
			d := float64(2*int(chip) - 1)
			startSample := i * spc
			for t, p := range pulse {
				idx := startSample + t
				if idx >= symLen {
					break
				}
				if i%2 == 0 {
					w[idx] += complex(d*p, 0)
				} else {
					w[idx] += complex(0, d*p)
				}
			}
		}
		out[ci] = w
	}
	return out
}

// oldModulateSymbols is modulateSymbols before it shared its chip shaper
// with CodeWaveforms: separate I and Q rails, summed into one waveform.
func oldModulateSymbols(r *Radio, symbols []byte, fs float64) ([]complex128, error) {
	spc, err := r.spc(fs)
	if err != nil {
		return nil, err
	}
	nChips := 32 * len(symbols)
	n := nChips*spc + spc
	iCh := make([]float64, n)
	qCh := make([]float64, n)
	pulse := make([]float64, 2*spc)
	for t := range pulse {
		pulse[t] = math.Sin(math.Pi * float64(t) / float64(2*spc))
	}
	chipIdx := 0
	for _, sym := range symbols {
		seq := chipTable[sym&0x0F]
		for i := 0; i < 32; i++ {
			d := float64(2*int(seq[i]) - 1)
			startSample := chipIdx * spc
			if i%2 == 0 {
				for t, p := range pulse {
					if startSample+t < n {
						iCh[startSample+t] += d * p
					}
				}
			} else {
				for t, p := range pulse {
					if startSample+t < n {
						qCh[startSample+t] += d * p
					}
				}
			}
			chipIdx++
		}
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(iCh[i], qCh[i])
	}
	dsp.Normalize(out)
	return out, nil
}

// sameSamples compares bit patterns, so even the sign of a zero counts.
func sameSamples(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// oracleRates are three sample rates the 250 kchip/s default runs at.
var oracleRates = []float64{500e3, 1e6, 2e6}

func TestCodeWaveformsMatchOldBody(t *testing.T) {
	r := Default()
	codes := make([][]byte, len(chipTable))
	for i := range chipTable {
		codes[i] = chipTable[i][:]
	}
	for _, rate := range oracleRates {
		got, want := r.CodeWaveforms(rate), oldCodeWaveforms(codes, r.Config().ChipRate, rate)
		if len(got) != 16 || len(want) != 16 {
			t.Fatalf("%g Hz: %d waveforms, oracle %d", rate, len(got), len(want))
		}
		for sym := range got {
			if !sameSamples(got[sym], want[sym]) {
				t.Fatalf("%g Hz: symbol %d waveform differs from the old body", rate, sym)
			}
		}
		// Each waveform is its own slice: appending to one cannot
		// overwrite the next.
		if cap(got[0]) != len(got[0]) {
			t.Fatalf("%g Hz: waveform capacity %d exceeds its length %d", rate, cap(got[0]), len(got[0]))
		}
	}
}

func TestModulateSymbolsMatchesOldBody(t *testing.T) {
	r := Default()
	symbols := append(r.headerSymbols(), symbolsOf([]byte{3, 0x5a, 0xff, 0x00, 0x81})...)
	for _, rate := range oracleRates {
		got, err := r.modulateSymbols(symbols, rate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oldModulateSymbols(r, symbols, rate)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSamples(got, want) {
			t.Fatalf("%g Hz: modulateSymbols differs from the old body", rate)
		}
	}
}

func TestIdentity(t *testing.T) {
	r := Default()
	if r.Name() != "oqpsk" || r.Class() != phy.ClassDSSS {
		t.Fatal("identity")
	}
	if r.BitRate() != 31250 {
		t.Fatalf("bit rate %v", r.BitRate())
	}
	if r.Config().ChipRate != 250e3 {
		t.Fatalf("chip rate %v", r.Config().ChipRate)
	}
}

func TestSymbolsBytesRoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		return bytes.Equal(bytesOfSymbols(symbolsOf(data)), data)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDespreadCleanSymbols(t *testing.T) {
	for sym := 0; sym < 16; sym++ {
		soft := make([]float64, 32)
		for i, c := range chipTable[sym] {
			soft[i] = float64(2*int(c) - 1)
		}
		got, score := despreadSymbol(soft)
		if got != byte(sym) {
			t.Fatalf("symbol %d despread as %d", sym, got)
		}
		if math.Abs(score-1) > 1e-9 {
			t.Fatalf("perfect despread score %v", score)
		}
	}
}

func TestRoundTripClean(t *testing.T) {
	r := Default()
	payload := []byte("thread-style frame")
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+3000)
	dsp.Add(rx, sig, 1234)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("payload %q crc %v", frame.Payload, frame.CRCOK)
	}
	if frame.Offset != 1234 {
		t.Fatalf("offset %d", frame.Offset)
	}
}

func TestRoundTripWithPhaseRotation(t *testing.T) {
	r := Default()
	payload := []byte{0xAA, 0x55, 0x0F}
	sig, _ := r.Modulate(payload, fs)
	rot := dsp.ScaleComplex(dsp.Clone(sig), complex(math.Cos(1.1), math.Sin(1.1)))
	rx := make([]complex128, len(sig)+1000)
	dsp.Add(rx, rot, 300)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("rotated payload %x", frame.Payload)
	}
}

func TestRoundTripNoise(t *testing.T) {
	r := Default()
	gen := rng.New(31)
	payload := []byte{1, 2, 3, 4, 5, 6}
	sig, _ := r.Modulate(payload, fs)
	// DSSS processing gain (32 chips) lets O-QPSK survive low SNR.
	for _, snrDB := range []float64{10, 0} {
		rx := make([]complex128, len(sig)+2000)
		for i := range rx {
			rx[i] = gen.Complex()
		}
		s := dsp.Scale(dsp.Clone(sig), math.Sqrt(dsp.FromDB(snrDB)))
		dsp.Add(rx, s, 700)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			t.Fatalf("snr %v: %v", snrDB, err)
		}
		if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("snr %v: payload %x", snrDB, frame.Payload)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := Default()
	gen := rng.New(32)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw%24) + 1
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := r.Modulate(payload, fs)
		if err != nil {
			return false
		}
		rx := make([]complex128, len(sig)+1000)
		dsp.Add(rx, sig, 250)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			return false
		}
		return frame.CRCOK && bytes.Equal(frame.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{ChipRate: -1}); err == nil {
		t.Fatal("negative chip rate")
	}
	if _, err := New(Config{PreambleLen: 1}); err == nil {
		t.Fatal("short preamble")
	}
	r := Default()
	if _, err := r.Modulate(nil, fs); err == nil {
		t.Fatal("empty payload")
	}
	if _, err := r.Modulate([]byte{1}, 333333); err == nil {
		t.Fatal("bad sample rate")
	}
	if _, err := r.Demodulate(make([]complex128, 16), fs); !errors.Is(err, phy.ErrNoFrame) {
		t.Fatal("short window should be ErrNoFrame")
	}
}

func TestConstantEnvelopeInterior(t *testing.T) {
	r := Default()
	sig, _ := r.Modulate([]byte{0x12, 0x34, 0x56}, fs)
	// interior samples (skip edges where only one rail is active)
	var minM, maxM = math.Inf(1), 0.0
	for _, v := range sig[200 : len(sig)-200] {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
	}
	if maxM/minM > 1.1 {
		t.Fatalf("envelope ripple %v", maxM/minM)
	}
}

func TestMaxPacketSamplesCovers(t *testing.T) {
	r := Default()
	sig, err := r.Modulate(make([]byte, 96), fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPacketSamples(fs) < len(sig) {
		t.Fatalf("MaxPacketSamples %d < %d", r.MaxPacketSamples(fs), len(sig))
	}
}

func BenchmarkModulate16B(b *testing.B) {
	r := Default()
	payload := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		if _, err := r.Modulate(payload, fs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDemodulate16B(b *testing.B) {
	r := Default()
	payload := make([]byte, 16)
	sig, _ := r.Modulate(payload, fs)
	rx := make([]complex128, len(sig)+500)
	dsp.Add(rx, sig, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Demodulate(rx, fs); err != nil {
			b.Fatal(err)
		}
	}
}
