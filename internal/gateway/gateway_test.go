package gateway

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/frontend"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func techs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no technologies should error")
	}
	g, err := New(Config{Techs: techs()})
	if err != nil {
		t.Fatal(err)
	}
	if g.SampleRate() != 1e6 {
		t.Fatal("default sample rate")
	}
}

func TestProcessQuietCapture(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(1)
	res := g.Process(channel.AWGN(100000, gen))
	flush := g.Flush()
	if n := len(res.Shipped) + len(flush.Shipped); n > 1 {
		t.Fatalf("quiet capture shipped %d segments", n)
	}
	st := g.Stats()
	if st.CapturesProcessed != 1 || st.RawBytes != 200000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProcessShipsDetectedPacket(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(2)
	sig, _ := xbee.Default().Modulate([]byte{1, 2, 3, 4, 5, 6, 7, 8}, fs)
	capture := channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 12}}, gen, fs)
	res := g.Process(capture)
	res.Shipped = append(res.Shipped, g.Flush().Shipped...)
	if len(res.Shipped) == 0 {
		t.Fatal("detected packet was not shipped")
	}
	// shipped segment must contain the packet
	seg := res.Shipped[0]
	if seg.Start > 30000 || seg.Start+int64(len(seg.Samples)) < int64(30000+len(sig)) {
		t.Fatalf("segment [%d, %d) does not cover packet [30000, %d)",
			seg.Start, seg.Start+int64(len(seg.Samples)), 30000+len(sig))
	}
}

func TestEdgeDecodeResolvesCleanPacket(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), EdgeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(3)
	payload := []byte("edge decodes me")
	sig, _ := xbee.Default().Modulate(payload, fs)
	capture := channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 15}}, gen, fs)
	res := g.Process(capture)
	flush := g.Flush()
	res.EdgeFrames = append(res.EdgeFrames, flush.EdgeFrames...)
	res.Shipped = append(res.Shipped, flush.Shipped...)
	if len(res.EdgeFrames) != 1 || !bytes.Equal(res.EdgeFrames[0].Payload, payload) {
		t.Fatalf("edge frames: %+v (shipped %d)", res.EdgeFrames, len(res.Shipped))
	}
	if res.EdgeFrames[0].Offset < 29990 || res.EdgeFrames[0].Offset > 30010 {
		t.Fatalf("absolute offset %d", res.EdgeFrames[0].Offset)
	}
	if len(res.Shipped) != 0 {
		t.Fatal("edge-resolved segment should not ship")
	}
}

func TestCollisionGoesToCloudDespiteEdge(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), EdgeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(4)
	l, _ := lora.Default().Modulate([]byte("lora here"), fs)
	x, _ := xbee.Default().Modulate([]byte("xbee here"), fs)
	capture := channel.Mix(len(l)+60000, []channel.Emission{
		{Samples: l, Offset: 20000, SNRdB: 10},
		{Samples: x, Offset: 24000, SNRdB: 10},
	}, gen, fs)
	res := g.Process(capture)
	res.Shipped = append(res.Shipped, g.Flush().Shipped...)
	if len(res.Shipped) == 0 {
		t.Fatal("collision should be shipped to the cloud")
	}
}

func TestAbsoluteOffsetsAcrossCaptures(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(5)
	sig, _ := xbee.Default().Modulate([]byte{1, 2, 3, 4}, fs)
	quiet := channel.AWGN(50000, gen)
	g.Process(quiet) // advances absolute clock by 50000
	capture := channel.Mix(len(sig)+40000, []channel.Emission{{Samples: sig, Offset: 20000, SNRdB: 12}}, gen, fs)
	res := g.Process(capture)
	res.Shipped = append(res.Shipped, g.Flush().Shipped...)
	if len(res.Shipped) == 0 {
		t.Fatal("packet not shipped")
	}
	// the packet's absolute position is 50000 (first capture) + 20000
	pktStart, pktLen := int64(70000), int64(len(sig))
	seg := res.Shipped[0]
	if seg.Start > pktStart || seg.Start+int64(len(seg.Samples)) < pktStart+pktLen {
		t.Fatalf("segment [%d, %d) does not cover packet at absolute [%d, %d)",
			seg.Start, seg.Start+int64(len(seg.Samples)), pktStart, pktStart+pktLen)
	}
}

func TestEndToEndGatewayCloud(t *testing.T) {
	// Full pipeline over an in-memory network: gateway detects and ships;
	// cloud decodes and reports back.
	ts := techs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)

	gen := rng.New(6)
	payloadL := []byte("from lora")
	payloadX := []byte("from xbee")
	l, _ := lora.Default().Modulate(payloadL, fs)
	x, _ := xbee.Default().Modulate(payloadX, fs)
	capture := channel.Mix(len(l)+60000, []channel.Emission{
		{Samples: l, Offset: 20000, SNRdB: 12},
		{Samples: x, Offset: 25000, SNRdB: 12},
	}, gen, fs)

	a, b := net.Pipe()
	captures := make(chan []complex128, 1)
	captures <- capture
	close(captures)

	var reports []backhaul.FramesReport
	errCh := make(chan error, 2)
	go func() { errCh <- svc.ServeConn(b) }()
	go func() {
		errCh <- g.Run(a, captures, func(r backhaul.FramesReport) {
			reports = append(reports, r)
		})
	}()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]byte{}
	for _, r := range reports {
		for _, f := range r.Frames {
			got[f.Tech] = f.Payload
		}
	}
	if !bytes.Equal(got["lora"], payloadL) || !bytes.Equal(got["xbee"], payloadX) {
		t.Fatalf("cloud reports incomplete: %+v", got)
	}
	if n := svc.Registry().Counter("cloud_frames_decoded_total").Value(); n < 2 {
		t.Fatalf("cloud totals %d", n)
	}
	if g.Stats().WireBytes == 0 {
		t.Fatal("wire bytes not counted")
	}
}

// workCounts is what a countingTech set has been asked to do.
type workCounts struct{ preamble, demodulate, modulate int }

// countingTech counts the per-technology work the edge policy can cause.
// The detector and the edge decoder ask for preambles only while they are
// built, so a Preamble call after New is a template rebuilt per segment.
type countingTech struct {
	phy.Technology
	n *workCounts
}

func (c countingTech) Preamble(sampleRate float64) []complex128 {
	c.n.preamble++
	return c.Technology.Preamble(sampleRate)
}

func (c countingTech) Demodulate(rx []complex128, sampleRate float64) (*phy.Frame, error) {
	c.n.demodulate++
	return c.Technology.Demodulate(rx, sampleRate)
}

func (c countingTech) Modulate(payload []byte, sampleRate float64) ([]complex128, error) {
	c.n.modulate++
	return c.Technology.Modulate(payload, sampleRate)
}

// TestEdgePolicyWork pins what the edge-vs-cloud decision costs, as counts:
// no preamble is rebuilt per segment; a lone packet is demodulated once; a
// suspected collision is not demodulated at all; nothing is ever
// re-modulated (the edge cancels nothing).
func TestEdgePolicyWork(t *testing.T) {
	x, _ := xbee.Default().Modulate([]byte("lone xbee"), fs)
	l, _ := lora.Default().Modulate([]byte("lora here"), fs)
	for _, tc := range []struct {
		name      string
		n         int
		emissions []channel.Emission
		resolved  int
		want      workCounts // per segment
	}{
		{
			name:      "lone packet",
			n:         len(x) + 60000,
			emissions: []channel.Emission{{Samples: x, Offset: 30000, SNRdB: 15}},
			resolved:  1,
			want:      workCounts{preamble: 0, demodulate: 1},
		},
		{
			name: "suspected collision",
			n:    len(l) + 60000,
			emissions: []channel.Emission{
				{Samples: l, Offset: 20000, SNRdB: 10},
				{Samples: x, Offset: 24000, SNRdB: 10},
			},
			want: workCounts{preamble: 0},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n workCounts
			counted := techs()
			for i, tech := range counted {
				counted[i] = countingTech{tech, &n}
			}
			g, err := New(Config{Techs: counted, Frontend: frontend.Ideal(fs), EdgeDecode: true})
			if err != nil {
				t.Fatal(err)
			}
			n = workCounts{} // building the detector and edge decoder asked for every preamble
			g.Process(channel.Mix(tc.n, tc.emissions, rng.New(5), fs))
			g.Flush()
			st := g.Stats()
			if st.Detections != 1 || st.SegmentsResolved != tc.resolved || st.SegmentsShipped != 1-tc.resolved {
				t.Fatalf("stats %+v", st)
			}
			if n != tc.want {
				t.Fatalf("work %+v, want %+v", n, tc.want)
			}
		})
	}
}
