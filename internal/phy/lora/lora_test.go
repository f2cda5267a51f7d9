package lora

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/rng"
)

const fs = 1e6

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SF: 5, Bandwidth: 125e3}); err == nil {
		t.Fatal("SF 5 should be rejected")
	}
	if _, err := New(Config{SF: 7}); err == nil {
		t.Fatal("zero bandwidth should be rejected")
	}
	if _, err := New(Config{SF: 7, Bandwidth: 125e3, CR: 5}); err == nil {
		t.Fatal("CR 5 should be rejected")
	}
	if _, err := New(Config{SF: 7, Bandwidth: 125e3, MaxPayload: 300}); err == nil {
		t.Fatal("max payload 300 should be rejected")
	}
	r, err := New(Config{SF: 7, Bandwidth: 125e3})
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Config(); c.CR != 4 || c.PreambleLen != 8 || c.MaxPayload != 64 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestChirpUnitModulus(t *testing.T) {
	r := Default()
	for _, up := range []bool{true, false} {
		c := r.chirp(up, 3, fs)
		if len(c) != 1024 { // 2^7 * 8 (osr = 1e6/125e3)
			t.Fatalf("chirp length %d", len(c))
		}
		for i, v := range c {
			if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
				t.Fatalf("chirp sample %d modulus %v", i, cmplx.Abs(v))
			}
		}
	}
}

func TestChirpOrthogonality(t *testing.T) {
	// Distinct cyclic shifts of the upchirp are near-orthogonal.
	r := Default()
	a := r.chirp(true, 0, fs)
	for _, s := range []int{1, 17, 64, 127} {
		b := r.chirp(true, s, fs)
		var dot complex128
		for i := range a {
			dot += a[i] * complex(real(b[i]), -imag(b[i]))
		}
		if cmplx.Abs(dot)/float64(len(a)) > 0.05 {
			t.Fatalf("chirp 0 vs %d correlation %.4f", s, cmplx.Abs(dot)/float64(len(a)))
		}
	}
}

func TestDemodSymbolAllValues(t *testing.T) {
	r := Default()
	down := dsp.Conj(r.chirp(true, 0, fs))
	for s := 0; s < 128; s += 7 {
		win := r.chirp(true, s, fs)
		got, _ := r.demodSymbol(win, down)
		if got != uint32(s) {
			t.Fatalf("symbol %d demodulated as %d", s, got)
		}
	}
}

func TestModulateDemodulateClean(t *testing.T) {
	r := Default()
	payload := []byte("hello lora world")
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	// embed with a delay and some trailing noise-free zeros
	rx := make([]complex128, len(sig)+5000)
	dsp.Add(rx, sig, 2048)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK {
		t.Fatal("CRC failed on clean signal")
	}
	if !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("payload %q", frame.Payload)
	}
	if frame.Offset != 2048 {
		t.Fatalf("offset %d, want 2048", frame.Offset)
	}
	if cmplx.Abs(frame.Gain-1) > 0.05 {
		t.Fatalf("gain %v, want ~1", frame.Gain)
	}
}

func TestRoundTripRandomPayloads(t *testing.T) {
	r := Default()
	gen := rng.New(42)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw%32) + 1
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := r.Modulate(payload, fs)
		if err != nil {
			return false
		}
		rx := make([]complex128, len(sig)+3000)
		dsp.Add(rx, sig, 500)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			return false
		}
		return frame.CRCOK && bytes.Equal(frame.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestDemodulateUnderNoise(t *testing.T) {
	r := Default()
	gen := rng.New(7)
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02}
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	// -5 dB SNR: CSS processing gain (2^SF) makes this easy for LoRa.
	for _, snrDB := range []float64{5, -5} {
		rx := make([]complex128, len(sig)+4000)
		for i := range rx {
			rx[i] = gen.Complex()
		}
		amp := math.Sqrt(dsp.FromDB(snrDB))
		scaled := dsp.Scale(dsp.Clone(sig), amp)
		dsp.Add(rx, scaled, 1500)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			t.Fatalf("snr %v dB: %v", snrDB, err)
		}
		if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("snr %v dB: corrupted payload %x", snrDB, frame.Payload)
		}
	}
}

func TestDemodulateWithCFO(t *testing.T) {
	r := Default()
	payload := []byte("cfo test")
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	// 200 Hz CFO ≈ 0.2 ppm at 868 MHz — well within crystal tolerance.
	for _, cfo := range []float64{120, -200} {
		rx := make([]complex128, len(sig)+2000)
		shifted := dsp.Mix(dsp.Clone(sig), cfo, 0.3, fs)
		dsp.Add(rx, shifted, 700)
		frame, err := r.Demodulate(rx, fs)
		if err != nil {
			t.Fatalf("cfo %v: %v", cfo, err)
		}
		if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
			t.Fatalf("cfo %v: payload %x", cfo, frame.Payload)
		}
	}
}

func TestDemodulateNoSignal(t *testing.T) {
	r := Default()
	gen := rng.New(9)
	rx := make([]complex128, 80000)
	for i := range rx {
		rx[i] = gen.Complex()
	}
	_, err := r.Demodulate(rx, fs)
	if err == nil {
		t.Fatal("pure noise should not decode")
	}
	if !errors.Is(err, phy.ErrNoFrame) {
		t.Fatalf("error %v should wrap ErrNoFrame", err)
	}
}

func TestModulateRejects(t *testing.T) {
	r := Default()
	if _, err := r.Modulate(nil, fs); err == nil {
		t.Fatal("empty payload")
	}
	if _, err := r.Modulate(make([]byte, 65), fs); err == nil {
		t.Fatal("oversized payload")
	}
	if _, err := r.Modulate([]byte{1}, 999999); err == nil {
		t.Fatal("non-integer OSR sample rate")
	}
}

func TestBitRate(t *testing.T) {
	r := Default()
	// SF7, BW 125k, CR 4/8: 7 * 125000/128 * 0.5 = 3417.97 bps
	want := 7.0 * 125000.0 / 128.0 * 0.5
	if got := r.BitRate(); math.Abs(got-want) > 0.01 {
		t.Fatalf("bit rate %v, want %v", got, want)
	}
}

func TestMaxPacketSamplesCoversModulated(t *testing.T) {
	r := Default()
	sig, err := r.Modulate(make([]byte, 64), fs)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPacketSamples(fs) < len(sig) {
		t.Fatalf("MaxPacketSamples %d < actual max airtime %d", r.MaxPacketSamples(fs), len(sig))
	}
}

func TestPreambleStructure(t *testing.T) {
	r := Default()
	pre := r.Preamble(fs)
	n := r.symbolSamples(fs)
	if len(pre) != 8*n+2*n+n/4 {
		t.Fatalf("preamble length %d", len(pre))
	}
	if p := dsp.Power(pre); math.Abs(p-1) > 1e-9 {
		t.Fatalf("preamble power %v", p)
	}
}

// TestPreambleSamplesMatchesPreamble: the data offset Demodulate computes
// is the length of the preamble it does not build.
func TestPreambleSamplesMatchesPreamble(t *testing.T) {
	for _, sf := range []int{7, 9} {
		r, err := New(Config{SF: sf, Bandwidth: 125e3})
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{250e3, 1e6, 2e6} {
			if got, want := r.preambleSamples(r.symbolSamples(rate)), len(r.Preamble(rate)); got != want {
				t.Errorf("SF%d at %g Hz: preambleSamples %d, len(Preamble) %d", sf, rate, got, want)
			}
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, l := range []int{1, 37, 255} {
		for cr := 1; cr <= 4; cr++ {
			h := headerBytes(l, cr)
			gl, gcr, err := parseHeader(h[:])
			if err != nil || gl != l || gcr != cr {
				t.Fatalf("header round trip l=%d cr=%d: %d %d %v", l, cr, gl, gcr, err)
			}
		}
	}
	bad := headerBytes(10, 4)
	bad[2] ^= 0xFF
	if _, _, err := parseHeader(bad[:]); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var tech phy.Technology = Default()
	if tech.Name() != "lora" || tech.Class() != phy.ClassCSS {
		t.Fatal("identity")
	}
	ct, ok := tech.(phy.ChirpTechnology)
	if !ok {
		t.Fatal("lora must implement ChirpTechnology")
	}
	if up, down := ct.Chirp(true, fs), ct.Chirp(false, fs); len(up) != 1024 || len(down) != 1024 || up[1] == down[1] {
		t.Fatal("chirp params")
	}
}

func TestHigherSpreadingFactor(t *testing.T) {
	r, err := New(Config{SF: 9, Bandwidth: 125e3, CR: 2, PreambleLen: 6, MaxPayload: 16})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5}
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+2000)
	dsp.Add(rx, sig, 321)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("SF9 round trip failed: %x", frame.Payload)
	}
}

func BenchmarkModulate16B(b *testing.B) {
	r := Default()
	payload := make([]byte, 16)
	b.ReportAllocs()
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
	rx := make([]complex128, len(sig)+1000)
	dsp.Add(rx, sig, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Demodulate(rx, fs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoundTripLowOversampling(t *testing.T) {
	// OSR 2 (fs = 250 kHz for the 125 kHz bandwidth) exercises the general
	// oversampling path with the smallest legal ratio above 1.
	r, err := New(Config{SF: 8, Bandwidth: 125e3, CR: 3, MaxPayload: 16})
	if err != nil {
		t.Fatal(err)
	}
	const lowFS = 250e3
	payload := []byte{0xAB, 0xCD, 0xEF}
	sig, err := r.Modulate(payload, lowFS)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+2000)
	dsp.Add(rx, sig, 777)
	frame, err := r.Demodulate(rx, lowFS)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("OSR-2 payload %x", frame.Payload)
	}
}

func TestRoundTripCriticalSampling(t *testing.T) {
	// OSR 1 (fs == bandwidth) is the critically sampled case used by
	// narrowband captures.
	r, err := New(Config{SF: 7, Bandwidth: 125e3, CR: 4, MaxPayload: 16})
	if err != nil {
		t.Fatal(err)
	}
	const critFS = 125e3
	payload := []byte{1, 2, 3}
	sig, err := r.Modulate(payload, critFS)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, len(sig)+1000)
	dsp.Add(rx, sig, 321)
	frame, err := r.Demodulate(rx, critFS)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("OSR-1 payload %x", frame.Payload)
	}
}

func TestImplicitHeaderRoundTrip(t *testing.T) {
	r, err := New(Config{SF: 7, Bandwidth: 125e3, CR: 2, ImplicitHeader: true, ImplicitLength: 6, MaxPayload: 16})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5, 6}
	sig, err := r.Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	// implicit mode must be shorter on air than explicit mode
	re, _ := New(Config{SF: 7, Bandwidth: 125e3, CR: 2, MaxPayload: 16})
	esig, _ := re.Modulate(payload, fs)
	if len(sig) >= len(esig) {
		t.Fatalf("implicit airtime %d not shorter than explicit %d", len(sig), len(esig))
	}
	rx := make([]complex128, len(sig)+2000)
	dsp.Add(rx, sig, 555)
	frame, err := r.Demodulate(rx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.CRCOK || !bytes.Equal(frame.Payload, payload) {
		t.Fatalf("implicit payload %x", frame.Payload)
	}
}

func TestImplicitHeaderValidation(t *testing.T) {
	if _, err := New(Config{SF: 7, Bandwidth: 125e3, ImplicitHeader: true}); err == nil {
		t.Fatal("implicit mode without length accepted")
	}
	r, _ := New(Config{SF: 7, Bandwidth: 125e3, ImplicitHeader: true, ImplicitLength: 4})
	if _, err := r.Modulate([]byte{1, 2, 3}, fs); err == nil {
		t.Fatal("wrong-length payload accepted in implicit mode")
	}
}
