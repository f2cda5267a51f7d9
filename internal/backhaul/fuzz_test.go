package backhaul

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/iq"
)

// FuzzSegmentCodec drives the segment codec from two directions at once:
// the sample bytes are first treated as a cu8 capture and pushed through a
// full Encode/DecodeSegment round trip, with or without trace context
// (metadata, trace context and samples must survive within quantization
// error), and then fed raw to DecodeSegment, which must reject or accept
// arbitrary payloads without panicking.
func FuzzSegmentCodec(f *testing.F) {
	// Seeds mirror the fixtures the unit tests exercise: empty, a short
	// ramp, noise-like bytes, and a repetitive tone-like run that flate
	// actually compresses.
	f.Add(int64(0), uint64(math.Float64bits(1e6)), []byte{}, false)
	f.Add(int64(123456), uint64(math.Float64bits(1e6)), []byte{0, 64, 128, 192, 255, 127}, true)
	f.Add(int64(-9), uint64(math.Float64bits(250e3)), []byte{200, 55, 13, 240, 99, 1, 128, 128}, true)
	tone := make([]byte, 512)
	for i := range tone {
		tone[i] = byte(128 + 100*((i/2)%2))
	}
	f.Add(int64(1<<40), uint64(math.Float64bits(2.4e6)), tone, false)
	// Hostile rates: the codec refuses what no radio runs at (NaN, 0) and
	// carries an absurd-but-finite 1e12 for the session to refuse.
	f.Add(int64(7), uint64(math.Float64bits(math.NaN())), []byte{1, 2, 3, 4}, true)
	f.Add(int64(7), uint64(math.Float64bits(0)), []byte{1, 2, 3, 4}, false)
	f.Add(int64(7), uint64(math.Float64bits(1e12)), []byte{1, 2, 3, 4}, true)

	f.Fuzz(func(t *testing.T, start int64, rateBits uint64, data []byte, traced bool) {
		// Direction 1: arbitrary bytes straight into the decoder. Errors are
		// expected; panics and runaway allocation are the bugs.
		if seg, err := DecodeSegment(data); err == nil {
			// The flate reader is capped at MaxMessageSize, so sample counts
			// past it mean the length guard broke.
			if len(seg.Samples) > MaxMessageSize {
				t.Fatalf("decoder produced %d samples from %d bytes", len(seg.Samples), len(data))
			}
		}

		// Direction 2: interpret the bytes as a cu8 capture and round-trip
		// it through the codec, with trace context on or off.
		rate := math.Float64frombits(rateBits)
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		samples, err := iq.Decode(data)
		if err != nil {
			t.Fatalf("cu8 decode of even-length bytes failed: %v", err)
		}
		var trace, parent uint64
		if traced {
			trace, parent = rateBits|1, uint64(start)
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			// A rate no radio runs at must not survive the decoder, however
			// well-formed the rest of the payload is.
			payload, err := DefaultCodec.Encode(Segment{Start: start, SampleRate: rate, Samples: samples, Trace: trace, Parent: parent})
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got, err := DecodeSegment(payload); err == nil {
				t.Fatalf("decoder accepted sample rate %v", got.SampleRate)
			}
			rate = 1e6
		}
		seg := Segment{Start: start, SampleRate: rate, Samples: samples, Trace: trace, Parent: parent}
		payload, err := DefaultCodec.Encode(seg)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeSegment(payload)
		if err != nil {
			t.Fatalf("decode of freshly encoded payload: %v", err)
		}
		if got.Start != start || len(got.Samples) != len(samples) {
			t.Fatalf("metadata changed: start %d→%d, %d→%d samples",
				start, got.Start, len(samples), len(got.Samples))
		}
		if math.Float64bits(got.SampleRate) != math.Float64bits(rate) {
			t.Fatalf("sample rate changed: %v → %v", rate, got.SampleRate)
		}
		if got.Trace != trace || got.Parent != parent {
			t.Fatalf("trace context changed: %#x/%#x → %#x/%#x", trace, parent, got.Trace, got.Parent)
		}
		// Quantization error bound: one 8-bit LSB. The AGC scale can shrink
		// tiny signals below one LSB, so normalize the tolerance by the
		// peak the encoder saw.
		peak := 0.0
		for _, v := range samples {
			peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
		}
		tol := 2.0 / 127.5
		if peak > 0 {
			tol *= peak / 0.98
		}
		for i := range samples {
			d := got.Samples[i] - samples[i]
			if math.Abs(real(d)) > tol || math.Abs(imag(d)) > tol {
				t.Fatalf("sample %d drifted by %v (tol %v, peak %v)", i, d, tol, peak)
			}
		}

		// Direction 3: the v2 sequenced framing. A seq prefix derived from
		// the inputs must survive the round trip, and the raw bytes must be
		// safe to feed to the sequenced decoder too.
		seq := rateBits ^ uint64(start)
		framed := make([]byte, 8+len(payload))
		binary.BigEndian.PutUint64(framed, seq)
		copy(framed[8:], payload)
		gotSeq, gotSeg, err := DecodeSegmentSeq(framed)
		if err != nil {
			t.Fatalf("decode of freshly framed v2 payload: %v", err)
		}
		if gotSeq != seq || gotSeg.Start != start || len(gotSeg.Samples) != len(samples) {
			t.Fatalf("v2 framing changed metadata: seq %d→%d, start %d→%d",
				seq, gotSeq, start, gotSeg.Start)
		}
		if _, seg, err := DecodeSegmentSeq(data); err == nil {
			if len(seg.Samples) > MaxMessageSize {
				t.Fatalf("sequenced decoder produced %d samples from %d bytes", len(seg.Samples), len(data))
			}
		}
	})
}

// FuzzHelloNegotiation throws arbitrary bytes at the handshake parsers:
// hello and hello-ack payloads must be rejected or accepted without
// panicking, a hello is accepted iff it speaks exactly Version, and a
// well-formed hello built from the fuzzed fields must survive a
// marshal/parse/negotiate round trip.
func FuzzHelloNegotiation(f *testing.F) {
	f.Add([]byte(`{"version":1,"gateway_id":"gw","sample_rate":1e6}`), 1)
	f.Add([]byte(`{"version":2,"techs":["lora","xbee"]}`), 2)
	f.Add([]byte(`{"version":99}`), 99)
	f.Add([]byte{0xFF, 0x00, 'x'}, -7)

	f.Fuzz(func(t *testing.T, raw []byte, version int) {
		// Arbitrary bytes into both JSON parsers: errors expected, panics not.
		if h, err := ParseHello(raw); err == nil {
			if v, err := Negotiate(h.Version); err == nil && (v != Version || h.Version != Version) {
				t.Fatalf("hello version %d negotiated to %d, want only %d accepted", h.Version, v, Version)
			}
		}
		_, _ = ParseHelloAck(raw)
		_, _ = ParseBusy(raw)

		// Structured round trip: a hello with the fuzzed version must come
		// back bit-identical through the wire framing.
		var buf bytes.Buffer
		c := NewConn(&buf)
		// Hex-encode the fuzzed bytes for the ID: JSON replaces invalid
		// UTF-8, which would break the bit-identical comparison below.
		sent := Hello{Version: version, GatewayID: fmt.Sprintf("%x", raw), SampleRate: 1e6}
		if err := c.SendHello(sent); err != nil {
			t.Fatalf("send hello: %v", err)
		}
		typ, payload, err := c.ReadMessage()
		if err != nil || typ != MsgHello {
			t.Fatalf("read hello: %v %v", typ, err)
		}
		got, err := ParseHello(payload)
		if err != nil {
			t.Fatalf("parse hello: %v", err)
		}
		if got.Version != version || got.GatewayID != sent.GatewayID {
			t.Fatalf("hello changed: %+v -> %+v", sent, got)
		}
		v, err := Negotiate(got.Version)
		if (err == nil) != (version == Version) {
			t.Fatalf("Negotiate(%d) acceptance wrong: %v", version, err)
		}
		if err == nil && v != version {
			t.Fatalf("Negotiate(%d) = %d", version, v)
		}
	})
}
