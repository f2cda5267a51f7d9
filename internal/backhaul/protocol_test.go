package backhaul

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/iq"
	"repro/internal/rng"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteMessage(MsgHello, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgHello || string(payload) != "abc" {
		t.Fatalf("%v %v %q", typ, err, payload)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendBye(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgBye || len(payload) != 0 {
		t.Fatalf("%v %v %d", typ, err, len(payload))
	}
}

func TestMessageTruncatedStream(t *testing.T) {
	c := NewConn(bytes.NewBuffer([]byte{byte(MsgHello), 0, 0, 0, 10, 'x'}))
	if _, _, err := c.ReadMessage(); err == nil {
		t.Fatal("truncated payload should error")
	}
	c2 := NewConn(bytes.NewBuffer([]byte{1, 2}))
	if _, _, err := c2.ReadMessage(); err == nil {
		t.Fatal("truncated header should error")
	}
}

func TestMessageOversizeRejected(t *testing.T) {
	hdr := []byte{byte(MsgSegmentSeq), 0xFF, 0xFF, 0xFF, 0xFF}
	c := NewConn(bytes.NewBuffer(hdr))
	if _, _, err := c.ReadMessage(); err == nil {
		t.Fatal("oversize length should be rejected before allocation")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	h := Hello{Version: Version, GatewayID: "gw-1", SampleRate: 1e6, Techs: []string{"lora", "xbee"}}
	if err := c.SendHello(h); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgHello {
		t.Fatal(err)
	}
	got, err := ParseHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.GatewayID != "gw-1" || got.SampleRate != 1e6 || len(got.Techs) != 2 {
		t.Fatalf("%+v", got)
	}
}

func TestFramesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	r := FramesReport{SegmentStart: 777, Frames: []FrameReport{{Tech: "lora", Payload: []byte{1, 2}, CRCOK: true, Offset: 780, SNRdB: 7.5}}}
	if err := c.SendFrames(r); err != nil {
		t.Fatal(err)
	}
	_, payload, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.SegmentStart != 777 || len(got.Frames) != 1 || !got.Frames[0].CRCOK {
		t.Fatalf("%+v", got)
	}
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	gen := rng.New(1)
	samples := make([]complex128, 5000)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.2, gen.NormFloat64()*0.2)
	}
	seg := Segment{Start: 123456, SampleRate: 1e6, Samples: samples}
	payload, err := DefaultCodec.Encode(seg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSegment(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != 123456 || got.SampleRate != 1e6 || len(got.Samples) != 5000 {
		t.Fatalf("meta %d %v %d", got.Start, got.SampleRate, len(got.Samples))
	}
	// Quantization error is bounded by the 8-bit LSB.
	const tol = 2.0 / 127.5
	for i := range samples {
		if d := got.Samples[i] - samples[i]; math.Abs(real(d)) > tol || math.Abs(imag(d)) > tol {
			t.Fatalf("sample %d error %v", i, d)
		}
	}
}

func TestSegmentCompressionWinsOnStructure(t *testing.T) {
	// A constant tone quantizes to a highly repetitive byte stream; flate
	// must shrink it. Pure noise should fall back to uncompressed.
	tone := dsp.Tone(20000, 10e3, 0, 1e6)
	dsp.Scale(tone, 0.5)
	seg := Segment{Start: 0, SampleRate: 1e6, Samples: tone}
	comp, err := DefaultCodec.Encode(seg)
	if err != nil {
		t.Fatal(err)
	}
	if plain := 26 + 2*len(tone) + 4; len(comp) >= plain || comp[25]&flagFlate == 0 {
		t.Fatalf("compression did not help: %d vs %d uncompressed (flags %#02x)", len(comp), plain, comp[25])
	}
	got, err := DecodeSegment(comp)
	if err != nil || len(got.Samples) != len(tone) {
		t.Fatalf("decode compressed: %v", err)
	}
}

func TestSegmentDecodeErrors(t *testing.T) {
	if _, err := DecodeSegment([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload")
	}
	// A CRC-valid payload claiming a rate no radio runs at is refused like
	// one with a bad scale.
	for _, rate := range []float64{math.NaN(), 0, -1e6, math.Inf(1)} {
		payload, err := DefaultCodec.Encode(Segment{SampleRate: rate, Samples: make([]complex128, 8)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSegment(payload); err == nil {
			t.Fatalf("sample rate %v accepted", rate)
		}
	}
}

func TestSegmentPayloadProperty(t *testing.T) {
	if err := quick.Check(func(start int64, data []byte) bool {
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		samples, err := iq.Decode(data)
		if err != nil {
			return false
		}
		seg := Segment{Start: start, SampleRate: 1e6, Samples: samples}
		payload, err := DefaultCodec.Encode(seg)
		if err != nil {
			return false
		}
		got, err := DecodeSegment(payload)
		if err != nil {
			return false
		}
		return got.Start == start && len(got.Samples) == len(samples)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		hello, want int
		ok          bool
	}{
		{0, 0, false},
		{1, 0, false}, // the retired request/reply protocol is rejected, not served
		{2, 0, false}, // so is the pre-trace-context version: nothing in-tree speaks it
		{Version, Version, true},
		{Version + 1, 0, false},
		{99, 0, false},
		{-1, 0, false},
	} {
		got, err := Negotiate(tc.hello)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("Negotiate(%d) = %d, %v; want %d, ok=%v", tc.hello, got, err, tc.want, tc.ok)
		}
	}
}

func TestSegmentSeqRoundTrip(t *testing.T) {
	gen := rng.New(3)
	samples := make([]complex128, 2000)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.3, gen.NormFloat64()*0.3)
	}
	var buf bytes.Buffer
	c := NewConn(&buf)
	n, err := c.SendSegmentSeq(41, Segment{Start: 9000, SampleRate: 1e6, Samples: samples})
	if err != nil || n <= 13 {
		t.Fatalf("send: %d %v", n, err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgSegmentSeq {
		t.Fatalf("%v %v", typ, err)
	}
	seq, seg, err := DecodeSegmentSeq(payload)
	if err != nil || seq != 41 || seg.Start != 9000 || len(seg.Samples) != 2000 {
		t.Fatalf("seq %d seg %+d/%d err %v", seq, seg.Start, len(seg.Samples), err)
	}
	if _, _, err := DecodeSegmentSeq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short sequenced payload accepted")
	}
}

func TestBusyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendBusy(1 << 40); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgBusy {
		t.Fatalf("%v %v", typ, err)
	}
	seq, err := ParseBusy(payload)
	if err != nil || seq != 1<<40 {
		t.Fatalf("seq %d err %v", seq, err)
	}
	if _, err := ParseBusy([]byte{1}); err == nil {
		t.Fatal("short busy payload accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendHelloAck(HelloAck{Version: Version, Window: 16, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgHelloAck {
		t.Fatalf("%v %v", typ, err)
	}
	ack, err := ParseHelloAck(payload)
	if err != nil || ack.Version != Version || ack.Window != 16 || ack.Workers != 4 {
		t.Fatalf("%+v %v", ack, err)
	}
	for _, raw := range []string{`{"version":2}`, `{"version":77}`} {
		if _, err := ParseHelloAck([]byte(raw)); err == nil {
			t.Fatalf("ack %s accepted", raw)
		}
	}
}

func TestFramesSeqSurvivesJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendFrames(FramesReport{SegmentStart: 5, Seq: 12}); err != nil {
		t.Fatal(err)
	}
	_, payload, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFrames(payload)
	if err != nil || got.Seq != 12 {
		t.Fatalf("%+v %v", got, err)
	}
}

func TestOverTCPLikePipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	gen := rng.New(2)
	samples := make([]complex128, 3000)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.1, gen.NormFloat64()*0.1)
	}
	done := make(chan error, 1)
	go func() {
		c := NewConn(a)
		if err := c.SendHello(Hello{Version: Version, GatewayID: "gw", SampleRate: 1e6}); err != nil {
			done <- err
			return
		}
		if _, err := c.SendSegmentSeq(9, Segment{Start: 42, SampleRate: 1e6, Samples: samples}); err != nil {
			done <- err
			return
		}
		done <- c.SendBye()
	}()
	c := NewConn(b)
	typ, _, err := c.ReadMessage()
	if err != nil || typ != MsgHello {
		t.Fatalf("hello: %v %v", typ, err)
	}
	typ, payload, err := c.ReadMessage()
	if err != nil || typ != MsgSegmentSeq {
		t.Fatalf("segment: %v %v", typ, err)
	}
	seq, seg, err := DecodeSegmentSeq(payload)
	if err != nil || seq != 9 || seg.Start != 42 || len(seg.Samples) != 3000 {
		t.Fatalf("segment decode: %v %+v", err, seg.Start)
	}
	typ, _, err = c.ReadMessage()
	if err != nil || typ != MsgBye {
		t.Fatalf("bye: %v %v", typ, err)
	}
	if err := <-done; err != nil && err != io.EOF {
		t.Fatal(err)
	}
}

func TestSegmentChecksumDetectsCorruption(t *testing.T) {
	gen := rng.New(3)
	samples := make([]complex128, 2000)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.2, gen.NormFloat64()*0.2)
	}
	payload, err := DefaultCodec.Encode(Segment{Start: 7, SampleRate: 1e6, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if payload[25]&2 == 0 {
		t.Fatal("checksum flag bit not set")
	}
	if _, err := DecodeSegment(payload); err != nil {
		t.Fatalf("clean payload must decode: %v", err)
	}
	// Flipping any byte — header, data, or the trailer itself — must be caught.
	for _, idx := range []int{0, 12, 24, 26, len(payload) / 2, len(payload) - 5, len(payload) - 1} {
		bad := append([]byte(nil), payload...)
		bad[idx] ^= 0x40
		if _, err := DecodeSegment(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", idx)
		}
	}
}

// resum recomputes a segment payload's CRC-32 trailer after an edit, so a
// test reaches the check behind the checksum.
func resum(payload []byte) {
	body := payload[:len(payload)-4]
	binary.BigEndian.PutUint32(payload[len(body):], crc32.ChecksumIEEE(body))
}

func TestSegmentUnknownFlagsRejected(t *testing.T) {
	payload, err := DefaultCodec.Encode(Segment{Start: 1, SampleRate: 1e6, Samples: make([]complex128, 64)})
	if err != nil {
		t.Fatal(err)
	}
	payload[25] |= 0x80
	resum(payload)
	if _, err := DecodeSegment(payload); err == nil || !strings.Contains(err.Error(), "unknown segment flags") {
		t.Fatalf("unknown flag bits should be rejected, got %v", err)
	}
}

// TestSegmentRejectsNonCU8Format: a checksum-clean payload whose format
// byte is not cu8 is refused.
func TestSegmentRejectsNonCU8Format(t *testing.T) {
	payload, err := DefaultCodec.Encode(Segment{Start: 1, SampleRate: 1e6, Samples: make([]complex128, 64)})
	if err != nil {
		t.Fatal(err)
	}
	payload[24] = 1
	resum(payload)
	if _, err := DecodeSegment(payload); err == nil || !strings.Contains(err.Error(), "not cu8") {
		t.Fatalf("format byte 1 should be rejected, got %v", err)
	}
}

// TestSegmentRejectsMissingCRC: a payload without the CRC-32 trailer (and
// without its flag bit) is well formed in every other way, yet refused.
func TestSegmentRejectsMissingCRC(t *testing.T) {
	gen := rng.New(8)
	samples := make([]complex128, 64)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.2, gen.NormFloat64()*0.2)
	}
	payload, err := DefaultCodec.Encode(Segment{Start: 1, SampleRate: 1e6, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	bare := append([]byte(nil), payload[:len(payload)-4]...)
	bare[25] &^= flagCRC
	if _, err := DecodeSegment(bare); err == nil || !strings.Contains(err.Error(), "lacks its CRC-32 trailer") {
		t.Fatalf("payload without CRC should be rejected, got %v", err)
	}
}

// TestSegmentGoldenBytes pins DefaultCodec's wire bytes: an incompressible
// noise segment (CRC only), a compressible tone with trace context (DEFLATE,
// CRC and trace extension) and an empty segment.
func TestSegmentGoldenBytes(t *testing.T) {
	r := rng.New(7)
	noise := make([]complex128, 48)
	for i := range noise {
		noise[i] = complex(r.NormFloat64()*0.3, r.NormFloat64()*0.3)
	}
	tone := make([]complex128, 256)
	for i := range tone {
		s, c := math.Sincos(2 * math.Pi * float64(i) / 16)
		tone[i] = complex(0.5*c, 0.5*s)
	}
	cases := []struct {
		name string
		seg  Segment
		want string
	}{
		{"noise", Segment{Start: 1000, SampleRate: 1e6, Samples: noise},
			"00000000000003e8412e8480000000003ff0b67f47b34b0d0002a65573548cc43cd53d765693a54f8e696b834b7c9f7a55b68c76894d8571969daa9c8faa90ae5a815c877b8e5bbf728b4a6094d0b9975d5545dfb765805b71668d6f4f8b7a9ab894879090b084947696779e2f0342368869a2c76d5742718390a6a79f71"},
		{"traced tone", Segment{Start: 123456, SampleRate: 2e6, Samples: tone, Trace: 0x0123456789abcdef, Parent: 0xfedcba9876543210},
			"000000000001e240413e8480000000003fff5c28f5c28f5c00070123456789abcdeffedcba9876543210bc91b109c05008440b5bf7701d37d28d6e9ddbe35a8bf40149209fd48fa7e29b1648a8271574587b46a497c119caa933bc1ee61fe3f5f1fe9ffcdefe7bdfbff459fd97fddae00ce5150000ffffd5fb9dd8"},
		{"empty", Segment{Start: 5, SampleRate: 1e6},
			"0000000000000005412e8480000000003ff000000000000000028c7515ae"},
	}
	for _, c := range cases {
		got, err := DefaultCodec.Encode(c.seg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h := hex.EncodeToString(got); h != c.want {
			t.Errorf("%s: wire bytes changed\n got %s\nwant %s", c.name, h, c.want)
		}
	}
}

func TestSegmentTraceContextRoundTrip(t *testing.T) {
	gen := rng.New(5)
	samples := make([]complex128, 1500)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.2, gen.NormFloat64()*0.2)
	}
	tone := dsp.Tone(len(samples), 10e3, 0, 1e6)
	dsp.Scale(tone, 0.5)
	// Noise ships uncompressed, the tone compressed: the extension sits
	// in front of either body.
	for _, body := range [][]complex128{samples, tone} {
		seg := Segment{Start: 555, SampleRate: 1e6, Samples: body, Trace: 0xCAFEF00DBEEF1234, Parent: 0x42}
		payload, err := DefaultCodec.Encode(seg)
		if err != nil {
			t.Fatal(err)
		}
		if payload[25]&(1<<2) == 0 {
			t.Fatalf("flags %#02x: trace flag bit not set", payload[25])
		}
		got, err := DecodeSegment(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace != seg.Trace || got.Parent != seg.Parent {
			t.Fatalf("flags %#02x: trace context lost: %#x/%#x", payload[25], got.Trace, got.Parent)
		}
		if got.Start != 555 || len(got.Samples) != 1500 {
			t.Fatalf("flags %#02x: segment body damaged: %d/%d", payload[25], got.Start, len(got.Samples))
		}
	}
}

func TestSegmentNoTraceBytesIdenticalToV2(t *testing.T) {
	// A zero Trace must not change the encoding at all: v1/v2 peers that
	// reject unknown flag bits keep working, and WAL files written before
	// v3 replay unchanged.
	gen := rng.New(6)
	samples := make([]complex128, 800)
	for i := range samples {
		samples[i] = complex(gen.NormFloat64()*0.2, gen.NormFloat64()*0.2)
	}
	plain, err := DefaultCodec.Encode(Segment{Start: 9, SampleRate: 1e6, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if plain[25]&(1<<2) != 0 {
		t.Fatal("trace flag set on a traceless segment")
	}
	traced, err := DefaultCodec.Encode(Segment{Start: 9, SampleRate: 1e6, Samples: samples, Trace: 77, Parent: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+16 {
		t.Fatalf("trace extension should add exactly 16 bytes: %d vs %d", len(traced), len(plain))
	}
	got, err := DecodeSegment(plain)
	if err != nil || got.Trace != 0 || got.Parent != 0 {
		t.Fatalf("traceless decode: %v trace=%d parent=%d", err, got.Trace, got.Parent)
	}
}

func TestHelloEpochRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendHello(Hello{Version: Version, GatewayID: "gw-1", SampleRate: 1e6, Epoch: 0xDEADBEEF}); err != nil {
		t.Fatal(err)
	}
	_, payload, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHello(payload)
	if err != nil || h.Epoch != 0xDEADBEEF {
		t.Fatalf("epoch lost in transit: %v epoch=%d", err, h.Epoch)
	}
	// Legacy hellos without the field parse as epoch 0 (dedup disabled).
	h2, err := ParseHello([]byte(`{"version":2,"gateway_id":"old"}`))
	if err != nil || h2.Epoch != 0 {
		t.Fatalf("legacy hello: %v epoch=%d", err, h2.Epoch)
	}
}
