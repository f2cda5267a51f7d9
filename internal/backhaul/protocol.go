// Package backhaul implements the gateway↔cloud wire protocol: a
// length-prefixed message stream carrying a JSON hello handshake, detected
// I/Q segments (quantized and flate-compressed to respect the home cable
// uplink the paper worries about), and decoded-frame reports flowing back.
//
// Framing: every message is [type:1][length:4 big-endian][payload]. Control
// messages (hello, frames) are JSON; segment payloads are binary:
// [startSample:8][sampleRate:8][scale:8][format:1][flags:1][trace:8? parent:8?][data...][crc32:4].
// The format byte is always 0 (cu8). The flags byte is a bitmask: bit 0
// marks DEFLATE-compressed data, bit 1 marks the trailing IEEE CRC-32 over
// everything before it. Every segment carries the trailer and the decoder
// refuses one without it (or with another format byte), so corruption on
// the wire is detected at decode time instead of silently producing garbage
// I/Q (the resilience layer relies on this: a corrupted segment fails loudly,
// the session dies, and the reconnecting gateway replays it — see DESIGN.md §11).
// Bit 2 marks a 16-byte trace-context extension between the fixed header
// and the sample data: the trace ID minted when the segment was detected
// and the span ID of the gateway span that shipped it, so the cloud's spans
// stitch under the gateway's in one cross-process trace (DESIGN.md §16). A
// segment without trace context carries neither the bit nor the extension.
// The scale field records the per-segment gain applied before quantization
// (digital AGC): samples are normalized so the peak rail sits just below
// full scale, exactly as an SDR gain stage would, and the receiver undoes
// the gain so calibrated power levels survive the 8-bit wire format.
package backhaul

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/iq"
	"repro/internal/obs"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types. Type 2 was the unsequenced segment of the retired
// v1 request/reply protocol; it stays reserved and is answered like any
// unexpected type.
const (
	MsgHello      MsgType = 1 // JSON Hello
	MsgFrames     MsgType = 3 // JSON FramesReport
	MsgBye        MsgType = 4 // empty payload, orderly shutdown
	MsgBusy       MsgType = 5 // [seq:8], segment rejected by admission control
	MsgSegmentSeq MsgType = 6 // [seq:8] + binary segment payload
	MsgHelloAck   MsgType = 7 // JSON HelloAck, cloud -> gateway
)

// Version is the one protocol version both sides speak: sequence-numbered
// segments, pipelined, with busy rejects, each optionally carrying trace
// context (the flagTrace extension).
const Version = 3

// Negotiate maps a gateway's hello version to the version the session will
// speak. Any version but Version is rejected outright — an older gateway
// expects replies this cloud no longer sends and a gateway from the future
// may frame messages it cannot parse, so no downgrade is attempted.
func Negotiate(helloVersion int) (int, error) {
	if helloVersion != Version {
		return 0, fmt.Errorf("backhaul: protocol version %d unsupported (serving %d)", helloVersion, Version)
	}
	return Version, nil
}

// MaxMessageSize bounds a single message payload (64 MiB) to keep a
// corrupted length prefix from exhausting memory.
const MaxMessageSize = 64 << 20

// Hello is the handshake sent by the gateway when a session opens.
type Hello struct {
	Version    int      `json:"version"`
	GatewayID  string   `json:"gateway_id"`
	SampleRate float64  `json:"sample_rate"`
	Techs      []string `json:"techs"`
	// Epoch identifies one gateway process lifetime. A reconnecting gateway
	// repeats the same nonzero epoch on every re-hello, letting the cloud
	// recognize replayed segments from a connection flap (dedup by
	// gateway+epoch+segment start) while a restarted gateway — new epoch —
	// never collides with stale cache entries. Zero (a single-session
	// gateway, Gateway.Run) disables dedup.
	Epoch uint64 `json:"epoch,omitempty"`
}

// HelloAck is the cloud's reply to a hello: it confirms the session and
// carries the negotiated protocol version plus advisory capacity hints the
// gateway may use to size its shipping window.
type HelloAck struct {
	Version int `json:"version"`
	// Window advises the gateway how many unacked segments the cloud is
	// willing to buffer for this session (0 = no advice). On a sharded
	// plane this is the admission bound of the shard the session landed
	// on, not of the whole plane.
	Window int `json:"window,omitempty"`
	// Workers reports the decode parallelism behind the session (0 = serial).
	// Like Window, per-shard on a sharded plane.
	Workers int `json:"workers,omitempty"`
	// Shards reports how many shared-nothing decode shards sit behind the
	// front tier that accepted this session (0 or 1 = unsharded). Gateways
	// that size their window automatically may scale it up with the shard
	// count, because each shard serves proportionally fewer sessions.
	Shards int `json:"shards,omitempty"`
	// Capacity is the aggregate admission capacity of the whole decode
	// plane (the sum of every shard's queue depth), an upper bound on the
	// segments the cloud can hold queued at once across all gateways
	// (0 = no advice). Purely advisory: this session's own ceiling is
	// still Window.
	Capacity int `json:"capacity,omitempty"`
}

// FrameReport describes one decoded frame, sent from the cloud back to the
// gateway (and usable by applications).
type FrameReport struct {
	Tech    string  `json:"tech"`
	Payload []byte  `json:"payload"`
	CRCOK   bool    `json:"crc_ok"`
	Offset  int64   `json:"offset"` // absolute sample index of the frame start
	SNRdB   float64 `json:"snr_db,omitempty"`
}

// FramesReport carries the decode results for one segment. Seq echoes the
// segment's sequence number so a pipelining gateway can match reports to
// in-flight segments.
type FramesReport struct {
	SegmentStart int64         `json:"segment_start"`
	Seq          uint64        `json:"seq,omitempty"`
	Frames       []FrameReport `json:"frames"`
}

// Segment is a detected I/Q block in transit.
type Segment struct {
	Start      int64
	SampleRate float64
	Samples    []complex128
	// Trace is the wire-propagated trace ID minted when the segment was
	// detected; Parent is the span ID of the gateway span that shipped it.
	// Both ride the flagTrace extension; a zero Trace (untraced gateway)
	// omits it.
	Trace  uint64
	Parent uint64
}

// ConnMetrics counts a Conn's message and byte flow in both directions.
// The zero value records nothing (nil-safe counters), so unmetered
// connections pay only dead branches.
type ConnMetrics struct {
	MsgsSent  *obs.Counter // backhaul_messages_sent_total
	MsgsRecv  *obs.Counter // backhaul_messages_received_total
	BytesSent *obs.Counter // backhaul_bytes_sent_total
	BytesRecv *obs.Counter // backhaul_bytes_received_total
}

// NewConnMetrics wires connection metrics onto a registry. Connections
// sharing a registry share the counters (the totals are per process-side,
// not per session).
func NewConnMetrics(r *obs.Registry) ConnMetrics {
	return ConnMetrics{
		MsgsSent:  r.Counter("backhaul_messages_sent_total"),
		MsgsRecv:  r.Counter("backhaul_messages_received_total"),
		BytesSent: r.Counter("backhaul_bytes_sent_total"),
		BytesRecv: r.Counter("backhaul_bytes_received_total"),
	}
}

// Conn frames messages over any reliable byte stream.
type Conn struct {
	rw io.ReadWriter
	m  ConnMetrics
}

// NewConn wraps a byte stream (net.Conn, net.Pipe end, bytes.Buffer...).
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// SetMetrics attaches flow counters (see NewConnMetrics). Call before the
// connection is shared across goroutines.
func (c *Conn) SetMetrics(m ConnMetrics) { c.m = m }

// WriteMessage sends one framed message.
func (c *Conn) WriteMessage(t MsgType, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("backhaul: payload %d exceeds max %d", len(payload), MaxMessageSize)
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.rw.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Skip the empty write: zero-length writes on rendezvous streams
		// like net.Pipe block until a matching read, which a zero-length
		// io.ReadFull on the peer never issues.
		c.m.MsgsSent.Inc()
		c.m.BytesSent.Add(uint64(len(hdr)))
		return nil
	}
	if _, err := c.rw.Write(payload); err != nil {
		return err
	}
	c.m.MsgsSent.Inc()
	c.m.BytesSent.Add(uint64(len(hdr) + len(payload)))
	return nil
}

// ReadMessage receives one framed message.
func (c *Conn) ReadMessage() (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxMessageSize {
		return 0, nil, fmt.Errorf("backhaul: message length %d exceeds max", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		return 0, nil, err
	}
	c.m.MsgsRecv.Inc()
	c.m.BytesRecv.Add(uint64(len(hdr)) + uint64(n))
	return t, payload, nil
}

// SendHello writes the handshake.
func (c *Conn) SendHello(h Hello) error {
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgHello, data)
}

// SendFrames writes a decode report.
func (c *Conn) SendFrames(r FramesReport) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgFrames, data)
}

// SendBye writes an orderly shutdown marker.
func (c *Conn) SendBye() error { return c.WriteMessage(MsgBye, nil) }

// SegmentCodec serializes segments in the one segment encoding: cu8
// samples (the RTL-SDR's native format), DEFLATE-compressed when that wins,
// with a CRC-32 integrity trailer.
type SegmentCodec struct{}

// Segment payload flag bits (payload byte 25).
const (
	flagFlate = 1 << 0
	flagCRC   = 1 << 1
	flagTrace = 1 << 2 // 16-byte [trace:8][parent:8] extension follows the header
)

// formatCU8 is the sample-format byte (payload byte 24) of every segment;
// it is the only value the decoder accepts.
const formatCU8 = 0

// traceExtSize is the flagTrace extension length.
const traceExtSize = 16

// DefaultCodec is what the paper's gateway effectively ships: 8-bit
// quantized samples, compressed, with an integrity trailer.
var DefaultCodec = SegmentCodec{}

// Encode serializes a segment.
func (SegmentCodec) Encode(seg Segment) ([]byte, error) {
	// Digital AGC: normalize the peak rail to 0.98 full scale so the
	// quantizer neither clips strong bursts nor wastes dynamic range on
	// weak ones.
	peak := 0.0
	for _, v := range seg.Samples {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if a := math.Abs(imag(v)); a > peak {
			peak = a
		}
	}
	scale := 1.0
	if peak > 0 {
		scale = 0.98 / peak
	}
	scaled := make([]complex128, len(seg.Samples))
	for i, v := range seg.Samples {
		scaled[i] = complex(real(v)*scale, imag(v)*scale)
	}
	raw := iq.Encode(scaled)
	flag := byte(flagCRC)
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// Only keep compression when it actually wins (noise-like I/Q can be
	// incompressible).
	if buf.Len() < len(raw) {
		raw = buf.Bytes()
		flag |= flagFlate
	}
	ext := 0
	if seg.Trace != 0 {
		flag |= flagTrace
		ext = traceExtSize
	}
	out := make([]byte, 26+ext+len(raw)+4)
	binary.BigEndian.PutUint64(out[0:], uint64(seg.Start))
	binary.BigEndian.PutUint64(out[8:], math.Float64bits(seg.SampleRate))
	binary.BigEndian.PutUint64(out[16:], math.Float64bits(scale))
	out[24] = formatCU8
	out[25] = flag
	if ext != 0 {
		binary.BigEndian.PutUint64(out[26:], seg.Trace)
		binary.BigEndian.PutUint64(out[34:], seg.Parent)
	}
	copy(out[26+ext:], raw)
	binary.BigEndian.PutUint32(out[26+ext+len(raw):], crc32.ChecksumIEEE(out[:26+ext+len(raw)]))
	return out, nil
}

// DecodeSegment deserializes a segment payload. It accepts only the one
// encoding SegmentCodec writes: cu8 samples behind a CRC-32 trailer.
func DecodeSegment(payload []byte) (Segment, error) {
	if len(payload) < 30 {
		return Segment{}, fmt.Errorf("backhaul: segment payload too short")
	}
	flags := payload[25]
	if flags&^(flagFlate|flagCRC|flagTrace) != 0 {
		return Segment{}, fmt.Errorf("backhaul: unknown segment flags %#02x", flags)
	}
	if flags&flagCRC == 0 {
		return Segment{}, fmt.Errorf("backhaul: segment lacks its CRC-32 trailer")
	}
	body := payload[:len(payload)-4]
	want := binary.BigEndian.Uint32(payload[len(payload)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Segment{}, fmt.Errorf("backhaul: segment checksum mismatch (got %#08x want %#08x)", got, want)
	}
	payload = body
	if payload[24] != formatCU8 {
		return Segment{}, fmt.Errorf("backhaul: segment sample format %d is not cu8", payload[24])
	}
	start := int64(binary.BigEndian.Uint64(payload[0:]))
	rate := math.Float64frombits(binary.BigEndian.Uint64(payload[8:]))
	scale := math.Float64frombits(binary.BigEndian.Uint64(payload[16:]))
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Segment{}, fmt.Errorf("backhaul: invalid segment sample rate %v", rate)
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return Segment{}, fmt.Errorf("backhaul: invalid segment scale %v", scale)
	}
	var trace, parent uint64
	data := payload[26:]
	if flags&flagTrace != 0 {
		if len(data) < traceExtSize {
			return Segment{}, fmt.Errorf("backhaul: segment payload too short for trace context")
		}
		trace = binary.BigEndian.Uint64(data[0:])
		parent = binary.BigEndian.Uint64(data[8:])
		data = data[traceExtSize:]
	}
	if flags&flagFlate != 0 {
		r := flate.NewReader(bytes.NewReader(data))
		defer r.Close()
		raw, err := io.ReadAll(io.LimitReader(r, MaxMessageSize))
		if err != nil {
			return Segment{}, fmt.Errorf("backhaul: decompress: %w", err)
		}
		data = raw
	}
	samples, err := iq.Decode(data)
	if err != nil {
		return Segment{}, err
	}
	inv := 1 / scale
	for i, v := range samples {
		samples[i] = complex(real(v)*inv, imag(v)*inv)
	}
	return Segment{Start: start, SampleRate: rate, Samples: samples, Trace: trace, Parent: parent}, nil
}

// SendSegmentSeq encodes and writes a sequence-numbered segment.
func (c *Conn) SendSegmentSeq(seq uint64, seg Segment) (wireBytes int, err error) {
	payload, err := DefaultCodec.Encode(seg)
	if err != nil {
		return 0, err
	}
	framed := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(framed, seq)
	copy(framed[8:], payload)
	if err := c.WriteMessage(MsgSegmentSeq, framed); err != nil {
		return 0, err
	}
	return 5 + len(framed), nil
}

// DecodeSegmentSeq deserializes a sequenced segment payload: an 8-byte
// sequence number followed by the segment encoding.
func DecodeSegmentSeq(payload []byte) (uint64, Segment, error) {
	if len(payload) < 8 {
		return 0, Segment{}, fmt.Errorf("backhaul: sequenced segment payload too short")
	}
	seq := binary.BigEndian.Uint64(payload)
	seg, err := DecodeSegment(payload[8:])
	return seq, seg, err
}

// SendBusy tells the gateway the segment with the given sequence number
// was rejected by admission control and will not be decoded.
func (c *Conn) SendBusy(seq uint64) error {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], seq)
	return c.WriteMessage(MsgBusy, payload[:])
}

// ParseBusy decodes a busy payload into the rejected sequence number.
func ParseBusy(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("backhaul: busy payload is %d bytes, want 8", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}

// SendHelloAck writes the cloud's session acknowledgement.
func (c *Conn) SendHelloAck(a HelloAck) error {
	data, err := json.Marshal(a)
	if err != nil {
		return err
	}
	return c.WriteMessage(MsgHelloAck, data)
}

// ParseHelloAck decodes a hello-ack payload.
func ParseHelloAck(payload []byte) (HelloAck, error) {
	var a HelloAck
	err := json.Unmarshal(payload, &a)
	if err == nil && a.Version != Version {
		return a, fmt.Errorf("backhaul: hello ack carries unsupported version %d", a.Version)
	}
	return a, err
}

// ParseHello decodes a hello payload.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	err := json.Unmarshal(payload, &h)
	return h, err
}

// ParseFrames decodes a frames-report payload.
func ParseFrames(payload []byte) (FramesReport, error) {
	var r FramesReport
	err := json.Unmarshal(payload, &r)
	return r, err
}
