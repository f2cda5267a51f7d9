package cancel

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/iq"
	"repro/internal/phy"
	"repro/internal/phy/dbpsk"
	"repro/internal/phy/lora"
	"repro/internal/phy/oqpsk"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

// allTechs is one technology per kill-filter branch: CSS, two FSK, DSSS and
// narrowband PSK.
func allTechs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default(), oqpsk.Default(), dbpsk.Default()}
}

// preambleCounter counts Preamble calls on a wrapped technology.
type preambleCounter struct {
	phy.Technology
	n *int
}

func (c preambleCounter) Preamble(sampleRate float64) []complex128 {
	*c.n++
	return c.Technology.Preamble(sampleRate)
}

// The counted* wrappers keep the class interface of what they wrap, so a
// counted technology still gets its kill filter.
type (
	countedTones  struct{ preambleCounter }
	countedNarrow struct{ preambleCounter }
	countedChirp  struct{ preambleCounter }
	countedCoded  struct{ preambleCounter }
)

func (c countedTones) Tones() []float64 { return c.Technology.(phy.ToneTechnology).Tones() }

func (c countedNarrow) Center() float64 { return c.Technology.(phy.NarrowbandTechnology).Center() }

func (c countedNarrow) OccupiedBandwidth() float64 {
	return c.Technology.(phy.NarrowbandTechnology).OccupiedBandwidth()
}

func (c countedChirp) Chirp(up bool, sampleRate float64) []complex128 {
	return c.Technology.(phy.ChirpTechnology).Chirp(up, sampleRate)
}

func (c countedCoded) CodeWaveforms(sampleRate float64) [][]complex128 {
	return c.Technology.(phy.CodedTechnology).CodeWaveforms(sampleRate)
}

// counted wraps t so its Preamble calls are counted in *n.
func counted(t phy.Technology, n *int) phy.Technology {
	c := preambleCounter{t, n}
	switch t.(type) {
	case phy.ToneTechnology:
		return countedTones{c}
	case phy.NarrowbandTechnology:
		return countedNarrow{c}
	case phy.ChirpTechnology:
		return countedChirp{c}
	case phy.CodedTechnology:
		return countedCoded{c}
	}
	return c
}

// codedCollision is an O-QPSK burst under an X-Bee one, so decoding it
// needs KILL-CODES or KILL-FREQUENCY.
func codedCollision(t *testing.T) []complex128 {
	t.Helper()
	o, err := oqpsk.Default().Modulate([]byte("coded under fsk"), fs)
	if err != nil {
		t.Fatal(err)
	}
	x, err := xbee.Default().Modulate([]byte("fsk over coded"), fs)
	if err != nil {
		t.Fatal(err)
	}
	return channel.Mix(len(o)+30000, []channel.Emission{
		{Samples: o, Offset: 5000, SNRdB: 12},
		{Samples: x, Offset: 7000, SNRdB: 12},
	}, rng.New(11), fs)
}

// TestDecoderBuildsPreamblesOnce: NewDecoder asks each technology for its
// preamble once, and classifying, edge-deciding and collision-decoding —
// kill filters included — ask for none.
func TestDecoderBuildsPreamblesOnce(t *testing.T) {
	plain := allTechs()
	n := make([]int, len(plain))
	techs := make([]phy.Technology, len(plain))
	for i, tech := range plain {
		techs[i] = counted(tech, &n[i])
	}
	d := NewDecoder(techs, fs)
	if !slices.Equal(n, []int{1, 1, 1, 1, 1}) {
		t.Fatalf("NewDecoder asked for preambles %v times, want once each", n)
	}
	clear(n)
	var kills Stats
	for _, rx := range [][]complex128{collisionCaptures(t)["lora+xbee"], codedCollision(t)} {
		d.Classify(rx)
		d.EdgeDecode(rx, false)
		d.EdgeDecode(rx, true)
		_, st := d.Decode(rx)
		kills.Add(st)
	}
	if kills.KillFreq == 0 || kills.KillCSS == 0 || kills.KillCodes == 0 {
		t.Fatalf("the captures do not reach every kill filter: %+v", kills)
	}
	if !slices.Equal(n, []int{0, 0, 0, 0, 0}) {
		t.Fatalf("decoding asked for preambles %v times, want none", n)
	}
}

// decodeAll is every frame one Decoder gives for rx: the edge policy in
// both forms, then the full decode.
func decodeAll(d *Decoder, rx []complex128) []*phy.Frame {
	frames, _ := d.Decode(rx)
	return append([]*phy.Frame{d.EdgeDecode(rx, false), d.EdgeDecode(rx, true)}, frames...)
}

// TestSharedDecoderConcurrent: one Decoder serving four goroutines at once
// (run under -race) returns what it returns sequentially.
func TestSharedDecoderConcurrent(t *testing.T) {
	d := NewDecoder(allTechs(), fs)
	caps := collisionCaptures(t)
	rxs := [][]complex128{caps["lora+xbee"], caps["lone zwave"], caps["noise"], codedCollision(t)}
	want := make([][]*phy.Frame, len(rxs))
	for i, rx := range rxs {
		want[i] = decodeAll(d, rx)
	}
	got := make([][]*phy.Frame, len(rxs))
	var wg sync.WaitGroup
	for i, rx := range rxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = decodeAll(d, rx)
		}()
	}
	wg.Wait()
	for i := range rxs {
		if !slices.EqualFunc(got[i], want[i], sameFrame) {
			t.Fatalf("capture %d: concurrent frames differ from the sequential run", i)
		}
	}
}

// FuzzEdgeDecode feeds arbitrary cu8 I/Q, up to 2^16 samples and optionally
// poisoned with a NaN and an Inf, to one shared five-technology decoder:
// the edge policy must not panic and may only return CRC-clean frames.
func FuzzEdgeDecode(f *testing.F) {
	d := NewDecoder(allTechs(), fs)
	x, err := xbee.Default().Modulate([]byte("fuzz seed"), fs)
	if err != nil {
		f.Fatal(err)
	}
	lone := channel.Mix(len(x)+4000, []channel.Emission{{Samples: x, Offset: 2000, SNRdB: 15}}, rng.New(1), fs)
	f.Add(iq.Encode(lone), uint16(0), uint16(0), false)
	f.Add(iq.Encode(lone), uint16(3000), uint16(100), true)
	f.Add([]byte{0, 255, 128}, uint16(0), uint16(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, nanAt, infAt uint16, poison bool) {
		n := min(len(raw)/2, 1<<16)
		rx, err := iq.Decode(raw[:2*n])
		if err != nil {
			t.Fatal(err)
		}
		if poison && n > 0 {
			rx[int(nanAt)%n] = complex(math.NaN(), imag(rx[int(nanAt)%n]))
			rx[int(infAt)%n] = complex(real(rx[int(infAt)%n]), math.Inf(1))
		}
		for _, lastResort := range []bool{false, true} {
			if fr := d.EdgeDecode(rx, lastResort); fr != nil && !fr.CRCOK {
				t.Fatalf("EdgeDecode(lastResort=%v) returned a frame failing its CRC: %+v", lastResort, fr)
			}
		}
	})
}
