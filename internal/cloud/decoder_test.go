package cloud

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/farm"
	"repro/internal/phy"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

// preambleCounter counts Preamble calls on a wrapped technology; farm
// workers may call it concurrently.
type preambleCounter struct {
	phy.Technology
	n *atomic.Int64
}

func (c preambleCounter) Preamble(sampleRate float64) []complex128 {
	c.n.Add(1)
	return c.Technology.Preamble(sampleRate)
}

// countedTones and countedChirp keep the class interface of what they
// wrap, so a counted technology still gets its kill filter.
type (
	countedTones struct{ preambleCounter }
	countedChirp struct{ preambleCounter }
)

func (c countedTones) Tones() []float64 { return c.Technology.(phy.ToneTechnology).Tones() }

func (c countedChirp) Chirp(up bool, sampleRate float64) []complex128 {
	return c.Technology.(phy.ChirpTechnology).Chirp(up, sampleRate)
}

// countedTechs wraps techs() so technology i counts its Preamble calls in
// n[i].
func countedTechs(t *testing.T, n []atomic.Int64) []phy.Technology {
	t.Helper()
	ts := techs()
	for i, tech := range ts {
		c := preambleCounter{tech, &n[i]}
		switch tech.(type) {
		case phy.ToneTechnology:
			ts[i] = countedTones{c}
		case phy.ChirpTechnology:
			ts[i] = countedChirp{c}
		default:
			t.Fatalf("%s has no counted wrapper", tech.Name())
		}
	}
	return ts
}

// fskSegment is an X-Bee frame followed by a Z-Wave one, captured at rate.
func fskSegment(t *testing.T, seed uint64, rate float64) backhaul.Segment {
	t.Helper()
	x, err := xbee.Default().Modulate([]byte("xbee frame"), rate)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zwave.Default().Modulate([]byte("zwave frame"), rate)
	if err != nil {
		t.Fatal(err)
	}
	gap := int(rate / 100)
	samples := channel.Mix(len(x)+len(z)+3*gap, []channel.Emission{
		{Samples: x, Offset: gap, SNRdB: 15},
		{Samples: z, Offset: len(x) + 2*gap, SNRdB: 15},
	}, rng.New(seed), rate)
	return backhaul.Segment{Start: int64(seed) * 10_000_000, SampleRate: rate, Samples: samples}
}

// runSession serves one session at rate on svc and ships segs through it
// one at a time, returning the frames reports.
func runSession(t *testing.T, svc *Service, rate float64, segs []backhaul.Segment) []backhaul.FramesReport {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: "counted", SampleRate: rate}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgHelloAck {
		t.Fatalf("hello ack %v %v", typ, err)
	}
	reports := make([]backhaul.FramesReport, len(segs))
	for i, seg := range segs {
		rep, err := shipOne(conn, uint64(i), seg)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgBye {
		t.Fatalf("bye ack %v %v", typ, err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return reports
}

// preambleCalls reads and clears the counters.
func preambleCalls(n []atomic.Int64) []int64 {
	out := make([]int64, len(n))
	for i := range n {
		out[i] = n[i].Swap(0)
	}
	return out
}

// TestServiceBuildsOneDecoderPerRate: a session asks each technology for
// its preamble once — its hello builds the decoder, and every segment,
// inline or through the farm, reuses it. A session at another rate builds
// once more and decodes what a fresh decoder at that rate decodes.
func TestServiceBuildsOneDecoderPerRate(t *testing.T) {
	const segments = 5
	for _, farmed := range []bool{false, true} {
		n := make([]atomic.Int64, len(techs()))
		svc := NewService(countedTechs(t, n))
		if farmed {
			svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 4})
		}
		for _, rate := range []float64{fs, 2e6} {
			segs := make([]backhaul.Segment, segments)
			for i := range segs {
				segs[i] = fskSegment(t, uint64(i+1), rate)
			}
			reports := runSession(t, svc, rate, segs)
			for i, calls := range preambleCalls(n) {
				if calls != 1 {
					t.Fatalf("farm %v, %g Hz: %s asked for its preamble %d times in a %d-segment session, want once",
						farmed, rate, techs()[i].Name(), calls, segments)
				}
			}
			fresh := cancel.NewDecoder(techs(), rate)
			for i, seg := range segs {
				// The fresh decoder reads the samples the wire delivered.
				payload, err := backhaul.DefaultCodec.Encode(seg)
				if err != nil {
					t.Fatal(err)
				}
				wire, err := backhaul.DecodeSegment(payload)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := fresh.Decode(wire.Samples)
				got := reports[i].Frames
				if len(want) != 2 || len(got) != len(want) {
					t.Fatalf("farm %v, %g Hz, segment %d: %d frames, fresh decoder %d (want 2)", farmed, rate, i, len(got), len(want))
				}
				for j, w := range want {
					g := got[j]
					if g.Tech != w.Tech || !bytes.Equal(g.Payload, w.Payload) || g.CRCOK != w.CRCOK ||
						g.Offset != seg.Start+int64(w.Offset) || g.SNRdB != w.SNRdB {
						t.Fatalf("farm %v, %g Hz, segment %d frame %d: %+v, fresh decoder %+v", farmed, rate, i, j, g, w)
					}
				}
			}
		}
		svc.Close()
	}
}
