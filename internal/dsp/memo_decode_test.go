package dsp_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

// threeWayDigest decodes a seeded LoRa + X-Bee + Z-Wave collision with the
// full Algorithm-1 decoder and digests every frame field (floats by their
// bits), the Stats and the candidates of a Classify of the same capture.
func threeWayDigest(t *testing.T) (string, int) {
	t.Helper()
	techs := []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
	var ems []channel.Emission
	n := 0
	for i, tech := range techs {
		sig, err := tech.Modulate([]byte(fmt.Sprintf("three-way %d", i)), 1e6)
		if err != nil {
			t.Fatal(err)
		}
		off := 5000 + 2500*i
		ems = append(ems, channel.Emission{Samples: sig, Offset: off, SNRdB: 12})
		n = max(n, off+len(sig)+20000)
	}
	rx := channel.Mix(n, ems, rng.New(27), 1e6)
	d := cancel.NewDecoder(techs, 1e6)
	h := sha256.New()
	bits := math.Float64bits
	for _, c := range d.Classify(rx) {
		fmt.Fprintf(h, "cand %s %d %x %x\n", c.Tech.Name(), c.Offset, bits(c.Score), bits(c.Power))
	}
	frames, stats := d.Decode(rx)
	for _, f := range frames {
		fmt.Fprintf(h, "frame %s %x %t %d %d %x %x %x %x %d\n", f.Tech, f.Payload, f.CRCOK, f.Bits, f.Offset,
			bits(real(f.Gain)), bits(imag(f.Gain)), bits(f.CFO), bits(f.SNRdB), f.Corrected)
	}
	fmt.Fprintf(h, "stats %+v\n", stats)
	return fmt.Sprintf("%x", h.Sum(nil))[:16], len(frames)
}

// threeWayGolden is threeWayDigest as computed before the spectrum memo
// existed, when every transform was recomputed on every call.
const threeWayGolden = "1ae666ecc4ba3990"

// TestDecodeIdenticalColdAndWarm pins the memo's exactness end to end: a
// full collision decode on an empty memo, and again on the memo it filled,
// give the frames, Stats and candidates of the memo-less code — and the
// decode writes none of the entries it reads.
func TestDecodeIdenticalColdAndWarm(t *testing.T) {
	dsp.ResetMemo()
	cold, frames := threeWayDigest(t)
	if frames != 3 {
		t.Fatalf("decoded %d of the 3 colliding frames", frames)
	}
	entries, sum := dsp.MemoChecksum()
	if entries == 0 {
		t.Fatal("the decode left the memo empty")
	}
	warm, _ := threeWayDigest(t)
	if cold != threeWayGolden || warm != threeWayGolden {
		t.Fatalf("digest cold %s, warm %s; want %s", cold, warm, threeWayGolden)
	}
	if e, s := dsp.MemoChecksum(); e != entries || s != sum {
		t.Fatalf("memo changed under a warm decode: %d entries (checksum %x), was %d (%x)", e, s, entries, sum)
	}
}
