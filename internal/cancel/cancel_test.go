package cancel

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/dbpsk"
	"repro/internal/phy/lora"
	"repro/internal/phy/oqpsk"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func TestKillFrequencyRemovesTones(t *testing.T) {
	// two tones at ±20 kHz plus a survivor at 100 kHz
	n := 8192
	rx := make([]complex128, n)
	dsp.Add(rx, dsp.Tone(n, 20e3, 0, fs), 0)
	dsp.Add(rx, dsp.Tone(n, -20e3, 0, fs), 0)
	dsp.Add(rx, dsp.Tone(n, 100e3, 0, fs), 0)
	out := KillFrequency(rx, []float64{-20e3, 20e3}, 4e3, fs)
	spec := dsp.Abs(dsp.FFT(out))
	get := func(f float64) float64 { return spec[(int(math.Round(f*float64(n)/fs))+n)%n] }
	if get(20e3) > 1e-6 || get(-20e3) > 1e-6 {
		t.Fatalf("tones not removed: %v %v", get(20e3), get(-20e3))
	}
	if get(100e3) < float64(n)*0.9 {
		t.Fatalf("survivor damaged: %v", get(100e3))
	}
}

func TestKillFrequencyDegenerate(t *testing.T) {
	rx := dsp.Tone(64, 1e3, 0, fs)
	out := KillFrequency(rx, nil, 1e3, fs)
	for i := range rx {
		if out[i] != rx[i] {
			t.Fatal("no-tones call should be identity")
		}
	}
	if len(KillFrequency(nil, []float64{0}, 1e3, fs)) != 0 {
		t.Fatal("empty input")
	}
}

func TestKillFrequencyRemovesZWaveEnergy(t *testing.T) {
	zw := zwave.Default()
	sig, err := zw.Modulate([]byte{1, 2, 3, 4, 5, 6, 7, 8}, fs)
	if err != nil {
		t.Fatal(err)
	}
	before := dsp.Energy(sig)
	out := KillFrequency(sig, zw.Tones(), FSKKillWidth(zw.BitRate()), fs)
	after := dsp.Energy(out)
	if after > 0.6*before {
		t.Fatalf("zwave energy only reduced %v -> %v", before, after)
	}
}

func TestKillCSSRemovesLoRaPreservesFSK(t *testing.T) {
	lr := lora.Default()
	xb := xbee.Default()
	lsig, _ := lr.Modulate([]byte{1, 2, 3, 4, 5, 6}, fs)
	xsig, _ := xb.Modulate([]byte{9, 8, 7, 6, 5, 4}, fs)

	n := len(lsig) + 2000
	loraOnly := make([]complex128, n)
	dsp.Add(loraOnly, lsig, 1000)
	killer := NewCSSKiller(lr)
	killedLora := killer.Apply(loraOnly, fs)
	loraResidual := dsp.Energy(killedLora) / dsp.Energy(loraOnly)
	if loraResidual > 0.25 {
		t.Fatalf("kill-css left %.1f%% of lora energy", 100*loraResidual)
	}

	xbeeOnly := make([]complex128, n)
	dsp.Add(xbeeOnly, xsig, 1000)
	killedXbee := killer.Apply(xbeeOnly, fs)
	xbeeResidual := dsp.Energy(killedXbee) / dsp.Energy(xbeeOnly)
	if xbeeResidual < 0.5 {
		t.Fatalf("kill-css destroyed xbee: %.1f%% left", 100*xbeeResidual)
	}
}

func TestKillCodesRemovesOQPSKPreservesOthers(t *testing.T) {
	oq := oqpsk.Default()
	xb := xbee.Default()
	osig, _ := oq.Modulate([]byte{1, 2, 3, 4, 5, 6, 7, 8}, fs)
	xsig, _ := xb.Modulate([]byte{5, 5, 5, 5}, fs)

	n := len(osig) + 4000
	oqOnly := make([]complex128, n)
	dsp.Add(oqOnly, osig, 2000)
	killed := KillCodes(oqOnly, oq, fs, 0.05)
	oqResidual := dsp.Energy(killed) / dsp.Energy(oqOnly)
	if oqResidual > 0.2 {
		t.Fatalf("kill-codes left %.1f%% of oqpsk energy", 100*oqResidual)
	}

	// Without an oqpsk preamble present, the filter must be a no-op.
	xbOnly := make([]complex128, len(xsig)+2000)
	dsp.Add(xbOnly, xsig, 1000)
	untouched := KillCodes(xbOnly, oq, fs, 0.2)
	if r := dsp.Energy(untouched) / dsp.Energy(xbOnly); math.Abs(r-1) > 1e-9 {
		t.Fatalf("kill-codes modified a capture without oqpsk: ratio %v", r)
	}
}

func TestClassifyRanksByPower(t *testing.T) {
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	d := NewDecoder(techs, fs)
	gen := rng.New(1)
	l, _ := techs[0].Modulate([]byte{1, 2, 3, 4}, fs)
	x, _ := techs[1].Modulate([]byte{4, 3, 2, 1}, fs)
	rx := channel.Mix(len(l)+30000, []channel.Emission{
		{Samples: l, Offset: 5000, SNRdB: 5},
		{Samples: x, Offset: 9000, SNRdB: 15},
	}, gen, fs)
	cands := d.Classify(rx)
	if len(cands) < 2 {
		t.Fatalf("candidates: %+v", cands)
	}
	if cands[0].Tech.Name() != "xbee" {
		t.Fatalf("strongest should be xbee (15 dB), got %s", cands[0].Tech.Name())
	}
}

func TestSubtractFrameCancels(t *testing.T) {
	xb := xbee.Default()
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sig, _ := xb.Modulate(payload, fs)
	rx := make([]complex128, len(sig)+2000)
	scaled := dsp.Scale(dsp.Clone(sig), 2.5)
	dsp.Add(rx, scaled, 700)
	frame, err := xb.Demodulate(rx, fs)
	if err != nil || !frame.CRCOK {
		t.Fatalf("decode failed: %v", err)
	}
	removed := subtractFrame(rx, xb, frame, fs, 4)
	if removed < 0.95 {
		t.Fatalf("only %.1f%% of frame energy removed", 100*removed)
	}
}

func TestDecodeSingleNoCollision(t *testing.T) {
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	d := NewDecoder(techs, fs)
	gen := rng.New(2)
	payload := []byte("single frame")
	sig, _ := techs[2].Modulate(payload, fs)
	rx := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, fs)
	frames, stats := d.Decode(rx)
	if len(frames) != 1 || frames[0].Tech != "zwave" || !bytes.Equal(frames[0].Payload, payload) {
		t.Fatalf("frames %+v", frames)
	}
	if stats.SICRounds != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDecodeLoRaXBeeCollisionWithKillFilters(t *testing.T) {
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	gen := rng.New(3)
	pl1 := []byte("lora payload")
	pl2 := []byte("xbee payload")
	l, _ := techs[0].Modulate(pl1, fs)
	x, _ := techs[1].Modulate(pl2, fs)
	// full overlap in time, comparable powers — the regime where plain SIC
	// breaks down
	n := len(l) + 20000
	mix := []channel.Emission{
		{Samples: l, Offset: 5000, SNRdB: 12},
		{Samples: x, Offset: 7000, SNRdB: 12},
	}
	rx := channel.Mix(n, mix, gen, fs)

	cloud := NewDecoder(techs, fs)
	frames, stats := cloud.Decode(rx)
	got := map[string][]byte{}
	for _, f := range frames {
		got[f.Tech] = f.Payload
	}
	if !bytes.Equal(got["lora"], pl1) || !bytes.Equal(got["xbee"], pl2) {
		t.Fatalf("cloud decode incomplete: %+v (stats %+v)", got, stats)
	}
}

func TestSICBaselineWorsePowerBalanced(t *testing.T) {
	// With equal received powers and full overlap, plain SIC should
	// recover at most one of the two frames in most draws, while kill
	// filters recover both. Run a few seeds and compare totals.
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	pl1 := []byte("payload-one")
	pl2 := []byte("payload-two")
	// The stress case: LoRa and XBee at the same center frequency with
	// comparable received powers and full time overlap. Strict SIC must
	// decode in power order; whenever the noisy power ranking puts XBee
	// first, its decode fails under the chirp interference and SIC stalls
	// with zero frames. CloudDecode falls back to KILL-CSS and recovers
	// both.
	l, _ := techs[0].Modulate(pl1, fs)
	x, _ := techs[1].Modulate(pl2, fs)
	n := len(l) + 20000

	totalSIC, totalCloud := 0, 0
	for seed := uint64(10); seed < 16; seed++ {
		gen := rng.New(seed)
		rx := channel.Mix(n, []channel.Emission{
			{Samples: l, Offset: 5000, SNRdB: 10},
			{Samples: x, Offset: 6000, SNRdB: 10},
		}, gen, fs)
		sic, _ := NewSIC(techs, fs).Decode(dsp.Clone(rx))
		cloud, _ := NewDecoder(techs, fs).Decode(rx)
		totalSIC += len(sic)
		totalCloud += len(cloud)
	}
	if totalCloud <= totalSIC {
		t.Fatalf("kill filters (%d frames) should beat SIC (%d frames)", totalCloud, totalSIC)
	}
}

func TestDecodeXBeeZWaveChannelized(t *testing.T) {
	// XBee (co-channel with LoRa) and Z-Wave (+250 kHz, per the EU band
	// plan) collide in time at equal power. KILL-FREQUENCY separates them.
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	plX := []byte("xbee data")
	plZ := []byte("zwave data")
	x, _ := techs[1].Modulate(plX, fs)
	z, _ := techs[2].Modulate(plZ, fs)
	n := len(x) + 20000
	if len(z)+20000 > n {
		n = len(z) + 20000
	}
	got := 0
	for seed := uint64(30); seed < 33; seed++ {
		gen := rng.New(seed)
		rx := channel.Mix(n, []channel.Emission{
			{Samples: x, Offset: 5000, SNRdB: 12},
			{Samples: z, Offset: 6000, SNRdB: 12},
		}, gen, fs)
		frames, _ := NewDecoder(techs, fs).Decode(rx)
		names := map[string]bool{}
		for _, f := range frames {
			names[f.Tech] = true
		}
		if names["xbee"] && names["zwave"] {
			got++
		}
	}
	if got < 2 {
		t.Fatalf("channelized FSK collision resolved only %d/3 times", got)
	}
}

func TestDecodeEmptyCapture(t *testing.T) {
	techs := []phy.Technology{xbee.Default()}
	d := NewDecoder(techs, fs)
	gen := rng.New(4)
	rx := channel.AWGN(40000, gen)
	frames, _ := d.Decode(rx)
	if len(frames) != 0 {
		t.Fatalf("decoded %d frames from noise", len(frames))
	}
}

func TestKillNarrowbandPSKCollision(t *testing.T) {
	// LoRa collides with a SigFox-class ultra-narrowband D-BPSK burst that
	// sits inside the capture. The PSK branch of KILL-FREQUENCY notches the
	// narrow carrier so LoRa decodes, and SIC then recovers the D-BPSK
	// frame from the residual.
	db, err := dbpsk.New(dbpsk.Config{CenterOffset: -30e3}) // inside LoRa's band
	if err != nil {
		t.Fatal(err)
	}
	lr := lora.Default()
	techs := []phy.Technology{lr, db}
	plL := []byte("lora under unb")
	plD := []byte{0xF0, 0x0D}
	gen := rng.New(41)
	l, _ := lr.Modulate(plL, fs)
	d, _ := db.Modulate(plD, fs)
	n := len(l) + 20000
	if len(d)+20000 > n {
		n = len(d) + 20000
	}
	rx := channel.Mix(n, []channel.Emission{
		{Samples: l, Offset: 5000, SNRdB: 8},
		// The UNB burst concentrates its power in 4 kHz, so at equal total
		// power its spectral density towers over LoRa's spread signal.
		{Samples: d, Offset: 6000, SNRdB: 8},
	}, gen, fs)
	frames, stats := NewDecoder(techs, fs).Decode(rx)
	got := map[string][]byte{}
	for _, f := range frames {
		got[f.Tech] = f.Payload
	}
	if !bytes.Equal(got["lora"], plL) {
		t.Fatalf("lora not recovered: %+v (stats %+v)", got, stats)
	}
	if !bytes.Equal(got["dbpsk"], plD) {
		t.Fatalf("dbpsk not recovered: %+v (stats %+v)", got, stats)
	}
}

func TestDisabledFiltersRespected(t *testing.T) {
	// Disabling KILL-CSS must prevent the CSS kill path from running, so a
	// LoRa+XBee equal-power collision where XBee ranks first degenerates to
	// SIC behavior for that pair.
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	d := NewDecoder(techs, fs)
	d.DisabledFilters = map[phy.Class]bool{phy.ClassCSS: true}
	l, _ := techs[0].Modulate([]byte("lora payload"), fs)
	x, _ := techs[1].Modulate([]byte("xbee payload"), fs)
	gen := rng.New(3)
	rx := channel.Mix(len(l)+20000, []channel.Emission{
		{Samples: l, Offset: 5000, SNRdB: 12},
		{Samples: x, Offset: 7000, SNRdB: 12},
	}, gen, fs)
	_, stats := d.Decode(rx)
	if stats.KillCSS != 0 {
		t.Fatalf("KILL-CSS ran %d times despite being disabled", stats.KillCSS)
	}
}
