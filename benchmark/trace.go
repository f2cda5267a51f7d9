package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one benchmark-owned interval around a call into a layer's public
// functions. Spans are recorded from outside the program, held in memory
// and written with the report (-out).
type span struct {
	Name   string `json:"name"` // layer.operation; the layer is the repository's module name
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for a root
	Block  int    `json:"block"`
	// Probe marks a span outside the replayed pipeline: a unit cost taken
	// by calling a layer directly. Probes never enter the budget.
	Probe bool `json:"probe,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, block int, probe bool) int {
	//lint:ignore unguardedstats a tracer stays on the goroutine that replays; spans are benchmark-owned and single-threaded by design
	t.spans = append(t.spans, span{Name: name, Parent: parent, Block: block, Probe: probe, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	//lint:ignore unguardedstats a tracer stays on the goroutine that replays
	t.spans[id].End = int64(time.Since(t.t0))
}

// in records f as a pipeline span under parent.
func (t *tracer) in(name string, parent, block int, f func()) {
	id := t.start(name, parent, block, false)
	f()
	t.end(id)
}

// probe records f as a unit-cost span: under parent when it is taken in
// the middle of a block (so the block does not count it as its own time),
// stand-alone (-1) otherwise.
func (t *tracer) probe(name string, parent, block int, f func()) {
	id := t.start(name, parent, block, true)
	f()
	t.end(id)
}

// total returns the summed duration and the number of spans called name.
func (t *tracer) total(name string) (seconds float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			seconds += s.seconds()
			n++
		}
	}
	return seconds, n
}

// per returns the mean duration of the spans called name, in units of
// 1/scale seconds (1e3: ms, 1e6: us); 0 when there are none.
func (t *tracer) per(name string, scale float64) float64 {
	s, n := t.total(name)
	if n == 0 {
		return 0
	}
	return s / float64(n) * scale
}

// selfSeconds returns each layer's self time over the pipeline spans: a
// span's duration minus what its child spans cover.
func selfSeconds(spans []span) map[string]float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if !s.Probe {
			out[s.layer()] += self[i]
		}
	}
	return out
}

// perLayer lists the metrics a traced run reports, in print order; the
// README's table says which end-to-end metric each should move, and where
// it should stay flat.
var perLayer = []metricDef{
	{"frontend.capture_ns_per_sample", "ns/sample"},
	{"detect.push_ns_per_sample", "ns/sample"},
	{"detect.alloc_bytes_per_sample", "B/sample"},
	{"detect.segments", "count"},
	{"detect.shipped_fraction", "ratio"},
	{"detect.false_segments", "count"},
	{"gateway.edge_decode_ms_per_seg", "ms"},
	{"gateway.edge_hit_ratio", "ratio"},
	{"cancel.decode_ms_per_seg", "ms"},
	{"cancel.alloc_mb_per_seg", "MB"},
	{"cancel.sic_rounds_per_seg", "count"},
	{"cancel.kill_freq_calls_per_seg", "count"},
	{"cancel.kill_css_calls_per_seg", "count"},
	{"cancel.failed_decodes_per_seg", "count"},
	{"cancel.decode_success_ratio", "ratio"},
	{"cancel.kill_freq_ms_per_call", "ms"},
	{"cancel.kill_css_ms_per_call", "ms"},
	{"cancel.kill_share", "ratio"},
	{"dsp.fft_seglen_ms", "ms"},
	{"dsp.fft_pow2_ms", "ms"},
	{"dsp.bluestein_tax", "ratio"},
	{"cloud.decode_segment_ms_per_seg", "ms"},
	{"cloud.overhead_ratio", "ratio"},
	{"farm.queue_us_per_job", "us"},
	{"fleet.shard_job_skew", "ratio"},
	{"backhaul.encode_ns_per_sample", "ns/sample"},
	{"backhaul.decode_ns_per_sample", "ns/sample"},
	{"backhaul.wire_rtt_us", "us"},
	{"backhaul.bytes_per_seg_sample", "B/sample"},
	{"wal.append_us_per_seg", "us"},
	{"wal.ack_us_per_seg", "us"},
	{"wal.bytes_per_seg_sample", "B/sample"},
	{"resilience.spool_put_us", "us"},
	{"budget.sum_s", "s"},
	{"budget.coverage_ratio", "ratio"},
	{"budget.detect_share", "ratio"},
	{"budget.cancel_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// budgetLayers is the row order of the reconciliation table.
var budgetLayers = []string{"frontend", "detect", "gateway", "resilience", "wal", "backhaul", "cloud", "cancel"}

// replay walks blocks through the layers one call at a time, on one
// goroutine, the way the gateway and the cloud would.
type replay struct {
	w      *workload
	tr     *tracer
	techs  []technology
	walDir string
}

// tally is what a replay counted beside the time its spans hold.
type tally struct {
	blocks                              int
	samples, segSamples, shippedSamples int64
	segments, falseSegments             int
	shipped, resolved                   int
	edgeTried, edgeHit                  int
	detectAllocB, cancelAllocB          uint64
	wireBytes, walBytes, walSamples     int64
	cloudFrames, bareFrames             int
	stats                               decodeStats // from the bare collision decodes
	kept                                []segment   // shipped segments the probes reuse
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gateway replays one gateway's first nblocks blocks.
func (r replay) gateway(gi int, a *air, nblocks int, t *tally) error {
	rx := newFrontend()
	stream, err := newDetectStream(r.techs)
	if err != nil {
		return err
	}
	edge := newEdgeDecoder(r.techs)
	cloud := newCloud(r.techs)
	bare := newCollisionDecoder(r.techs)
	spool := newSpool(nblocks + 1)
	log, err := openWAL(filepath.Join(r.walDir, fmt.Sprintf("replay%d", gi)))
	if err != nil {
		return err
	}
	tr := r.tr
	var failed error
	for b, blk := range a.blocks[:nblocks] {
		t.blocks++
		root := tr.start("replay.block", -1, b, false)
		for _, c := range blk.captures {
			var got []complex128
			tr.in("frontend.capture", root, b, func() { got = frontendCapture(rx, c) })
			var segs []streamSegment
			alloc := allocBytes()
			tr.in("detect.push", root, b, func() { segs = streamPush(stream, got) })
			t.detectAllocB += allocBytes() - alloc
			t.samples += int64(len(c))
			for _, s := range segs {
				t.segments++
				t.segSamples += int64(len(s.Samples))
				if !covers(s, int64(b)*int64(a.blockLen()), blk.packets) {
					t.falseSegments++
				}
				if r.w.edgeDecode {
					ok := false
					tr.in("gateway.edge_decode", root, b, func() { ok = edgeAttempt(edge, s.Samples) })
					t.edgeTried++
					if ok {
						t.edgeHit++
						t.resolved++
						continue
					}
				}
				seg := segment{Start: s.Start, SampleRate: sampleRate, Samples: s.Samples}
				t.shipped++
				t.shippedSamples += int64(len(seg.Samples))
				var id uint64
				if r.w.durable {
					tr.in("wal.append", root, b, func() { id, err = r.journal(log, seg, t) })
					failed = errors.Join(failed, err)
					tr.in("resilience.spool_put", root, b, func() {
						spoolPut(spool, seg)
						seg = spoolTake(spool)
					})
				}
				var payload []byte
				tr.in("backhaul.encode", root, b, func() { payload, err = encodeSegment(seg) })
				failed = errors.Join(failed, err)
				t.wireBytes += int64(len(payload)) + wireOverhead
				var arrived segment
				tr.in("backhaul.decode", root, b, func() { arrived, err = decodeSegment(payload) })
				failed = errors.Join(failed, err)
				var rep framesReport
				tr.in("cloud.decode_segment", root, b, func() { rep = cloudDecodeSegment(cloud, arrived) })
				t.cloudFrames += len(rep.Frames)
				if r.w.durable {
					tr.in("wal.ack", root, b, func() { walAck(log, id) })
				}
				// The same decode with no service around it: what cancel
				// alone costs, allocates and does.
				alloc = allocBytes()
				tr.probe("cancel.decode", root, b, func() {
					n, st := collisionDecode(bare, arrived.Samples)
					t.bareFrames += n
					t.stats = t.stats.plus(st)
				})
				t.cancelAllocB += allocBytes() - alloc
				if len(t.kept) < probeSegments {
					t.kept = append(t.kept, arrived)
				}
			}
		}
		tr.end(root)
	}
	if extra := streamFlush(stream); len(extra) != 0 {
		failed = errors.Join(failed, fmt.Errorf("replay: %d segments still held back after the last block", len(extra)))
	}
	return errors.Join(failed, walClose(log))
}

// journal appends seg to the log and tallies what the log grew by.
func (r replay) journal(log *walT, seg segment, t *tally) (uint64, error) {
	before := walLiveBytes(log)
	id, err := walAppend(log, seg)
	t.walBytes += max(walLiveBytes(log)-before, 0)
	t.walSamples += int64(len(seg.Samples))
	return id, err
}

// wireOverhead is what a session adds to an encoded segment on the wire:
// the 5-byte frame header and the 8-byte sequence number.
const wireOverhead = 13

// probeSegments is how many of the workload's own shipped segments the unit
// probes run on.
const probeSegments = 2

// covers reports whether a segment overlaps any transmitted packet of the
// block starting at absolute sample base.
func covers(s streamSegment, base int64, packets []packet) bool {
	for _, p := range packets {
		lo, hi := base+int64(p.Offset), base+int64(p.Offset+p.Length)
		if s.Start < hi && lo < s.Start+int64(len(s.Samples)) {
			return true
		}
	}
	return false
}

// probes takes the unit costs the budget does not hold: each kill filter and
// the FFT at the workload's own segment length, the farm queue, the wire
// round trip, and the layers this workload's deployment does not use.
func (r replay) probes(t *tally) error {
	tr := r.tr
	if len(t.kept) == 0 {
		return errors.New("replay: no shipped segment to probe")
	}
	xbee, lora := pickTechs("xbee")[0], pickTechs("lora")[0]
	for _, seg := range t.kept {
		x := seg.Samples
		tr.probe("cancel.kill_freq", -1, -1, func() { killFrequency(x, xbee) })
		tr.probe("cancel.kill_css", -1, -1, func() { killCSS(x, lora) })
		tr.probe("dsp.fft_seglen", -1, -1, func() { fft(x) })
		padded := make([]complex128, nextPow2(len(x)))
		copy(padded, x)
		tr.probe("dsp.fft_pow2", -1, -1, func() { fft(padded) })
		if !r.w.edgeDecode {
			edge := newEdgeDecoder(r.techs)
			ok := false
			tr.probe("gateway.edge_decode", -1, -1, func() { ok = edgeAttempt(edge, x) })
			t.edgeTried++
			if ok {
				t.edgeHit++
			}
		}
	}
	if !r.w.durable {
		log, err := openWAL(filepath.Join(r.walDir, "probe"))
		if err != nil {
			return err
		}
		spool := newSpool(len(t.kept))
		for _, seg := range t.kept {
			var id uint64
			tr.probe("wal.append", -1, -1, func() { id, err = r.journal(log, seg, t) })
			if err != nil {
				return errors.Join(err, walClose(log))
			}
			tr.probe("wal.ack", -1, -1, func() { walAck(log, id) })
			tr.probe("resilience.spool_put", -1, -1, func() {
				spoolPut(spool, seg)
				spoolTake(spool)
			})
		}
		if err := walClose(log); err != nil {
			return err
		}
	}
	farm := newNoopFarm(1)
	for i := 0; i < 64; i++ {
		done := make(chan struct{})
		var err error
		tr.probe("farm.queue", -1, -1, func() {
			if err = farmSubmit(farm, t.kept[0], func() { close(done) }); err == nil {
				<-done
			}
		})
		if err != nil {
			farmClose(farm)
			return err
		}
	}
	farmClose(farm)
	return r.wireProbe()
}

// wireProbe times a framed 8-byte message there and back over the transport
// the workload's sessions use.
func (r replay) wireProbe() error {
	var near, far io.ReadWriteCloser
	if r.w.durable {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		if near, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return err
		}
		if far, err = ln.Accept(); err != nil {
			return errors.Join(err, near.Close())
		}
	} else {
		near, far = net.Pipe()
	}
	echoed := make(chan struct{})
	go func() { // echoes until the near end closes
		defer close(echoed)
		w := newWire(far)
		for {
			p, err := w.recv()
			if err != nil || w.ping(p) != nil {
				return
			}
		}
	}()
	w := newWire(near)
	var err error
	for i := 0; i < 256 && err == nil; i++ {
		r.tr.probe("backhaul.wire_rtt", -1, -1, func() {
			if err = w.ping(make([]byte, 8)); err == nil {
				_, err = w.recv()
			}
		})
	}
	err = errors.Join(err, near.Close())
	<-echoed
	return errors.Join(err, far.Close())
}

// traceWorkload is the traced run: an untraced closed-loop pass over the
// first blocks through the real deployment (the reference the budget is
// reconciled with), then the same blocks replayed layer by layer.
func traceWorkload(w *workload, o options) (*result, error) {
	nblocks := w.traceCycles * len(w.kinds)
	if o.smoke {
		nblocks = 1
	}
	d, warm, err := setUp(w, o, nblocks)
	if err != nil {
		return nil, err
	}
	ref := d.session(nblocks, 0)
	skew := 1.0
	if d.plane != nil {
		skew = jobSkew(d.plane.shardJobs())
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	walDir, err := makeTemp(o.tmp)
	if err != nil {
		return nil, err
	}
	defer removeTemp(walDir)
	r := replay{w: w, tr: &tracer{t0: time.Now()}, techs: pickTechs(w.techs...), walDir: walDir}
	var t tally
	for gi, a := range d.airs {
		if err := r.gateway(gi, a, nblocks, &t); err != nil {
			return nil, err
		}
	}
	if err := r.probes(&t); err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: o.seed, Traced: true, Spans: r.tr.spans}
	res.Verdict = withWarmUp(ref.verdict, warm)
	// The replay repeats the gateway's edge policy from outside; it must
	// agree with the real gateway and cloud on what happened to the blocks.
	if t.shipped != ref.count.Shipped || t.resolved != ref.count.Resolved || t.cloudFrames != ref.verdict.CloudFrame {
		res.Verdict.Problems = append(res.Verdict.Problems, fmt.Sprintf(
			"replay shipped %d, resolved %d, decoded %d frames; the deployment shipped %d, resolved %d, decoded %d",
			t.shipped, t.resolved, t.cloudFrames, ref.count.Shipped, ref.count.Resolved, ref.verdict.CloudFrame))
	}
	res.Correct = res.Verdict.correct()
	setMetrics(res, perLayer, r.metrics(&t, ref, skew))
	r.table(res, &t, ref)
	return res, nil
}

// jobSkew is the busiest shard's job count over the mean.
func jobSkew(jobs []uint64) float64 {
	var sum, most uint64
	for _, j := range jobs {
		sum += j
		most = max(most, j)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(len(jobs)) / float64(sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget returns each layer's self time in the replayed pipeline. The
// cloud's decode_segment span holds the collision decode; the bare decode
// of the same segment is cancel's share of it and the rest is the cloud's
// own.
func (r replay) budget() (layers map[string]float64, sum, glue float64) {
	layers = selfSeconds(r.tr.spans)
	glue = layers["replay"]
	delete(layers, "replay")
	for _, s := range layers {
		sum += s
	}
	cancelS, _ := r.tr.total("cancel.decode")
	cancelS = min(cancelS, layers["cloud"])
	layers["cancel"] = cancelS
	layers["cloud"] -= cancelS
	return layers, sum, glue
}

func (r replay) metrics(t *tally, ref sessionResult, skew float64) map[string]float64 {
	tr := r.tr
	perSample := func(name string, samples int64) float64 {
		s, _ := tr.total(name)
		return ratio(s*1e9, float64(samples))
	}
	shipped := float64(t.shipped)
	cancelS, _ := tr.total("cancel.decode")
	cloudS, _ := tr.total("cloud.decode_segment")
	killFreqMs, killCSSMs := tr.per("cancel.kill_freq", 1e3), tr.per("cancel.kill_css", 1e3)
	fftSeg, fftPow2 := tr.per("dsp.fft_seglen", 1e3), tr.per("dsp.fft_pow2", 1e3)
	layers, sum, glue := r.budget()
	return map[string]float64{
		"frontend.capture_ns_per_sample":  perSample("frontend.capture", t.samples),
		"detect.push_ns_per_sample":       perSample("detect.push", t.samples),
		"detect.alloc_bytes_per_sample":   ratio(float64(t.detectAllocB), float64(t.samples)),
		"detect.segments":                 float64(t.segments),
		"detect.shipped_fraction":         ratio(float64(t.segSamples), float64(t.samples)),
		"detect.false_segments":           float64(t.falseSegments),
		"gateway.edge_decode_ms_per_seg":  tr.per("gateway.edge_decode", 1e3),
		"gateway.edge_hit_ratio":          ratio(float64(t.edgeHit), float64(t.edgeTried)),
		"cancel.decode_ms_per_seg":        tr.per("cancel.decode", 1e3),
		"cancel.alloc_mb_per_seg":         ratio(float64(t.cancelAllocB)/1e6, shipped),
		"cancel.sic_rounds_per_seg":       ratio(float64(t.stats.SICRounds), shipped),
		"cancel.kill_freq_calls_per_seg":  ratio(float64(t.stats.KillFreq), shipped),
		"cancel.kill_css_calls_per_seg":   ratio(float64(t.stats.KillCSS), shipped),
		"cancel.failed_decodes_per_seg":   ratio(float64(t.stats.Failed), shipped),
		"cancel.decode_success_ratio":     ratio(float64(t.bareFrames), float64(t.bareFrames+t.stats.Failed)),
		"cancel.kill_freq_ms_per_call":    killFreqMs,
		"cancel.kill_css_ms_per_call":     killCSSMs,
		"cancel.kill_share":               ratio(float64(t.stats.KillFreq)*killFreqMs+float64(t.stats.KillCSS)*killCSSMs, cancelS*1e3),
		"dsp.fft_seglen_ms":               fftSeg,
		"dsp.fft_pow2_ms":                 fftPow2,
		"dsp.bluestein_tax":               ratio(fftSeg, fftPow2),
		"cloud.decode_segment_ms_per_seg": tr.per("cloud.decode_segment", 1e3),
		"cloud.overhead_ratio":            ratio(cloudS, cancelS),
		"farm.queue_us_per_job":           tr.per("farm.queue", 1e6),
		"fleet.shard_job_skew":            skew,
		"backhaul.encode_ns_per_sample":   perSample("backhaul.encode", t.shippedSamples),
		"backhaul.decode_ns_per_sample":   perSample("backhaul.decode", t.shippedSamples),
		"backhaul.wire_rtt_us":            tr.per("backhaul.wire_rtt", 1e6),
		"backhaul.bytes_per_seg_sample":   ratio(float64(t.wireBytes), float64(t.shippedSamples)),
		"wal.append_us_per_seg":           tr.per("wal.append", 1e6),
		"wal.ack_us_per_seg":              tr.per("wal.ack", 1e6),
		"wal.bytes_per_seg_sample":        ratio(float64(t.walBytes), float64(t.walSamples)),
		"resilience.spool_put_us":         tr.per("resilience.spool_put", 1e6),
		"budget.sum_s":                    sum,
		"budget.coverage_ratio":           ratio(sum, ref.cpuS),
		"budget.detect_share":             ratio(layers["detect"], sum),
		"budget.cancel_share":             ratio(layers["cancel"], sum),
		"trace.overhead_ratio":            ratio(sum+glue, ref.cpuS),
	}
}

// table appends the reconciliation table to the run's notes: each layer's
// self time in the replay, its share, and the sum against the CPU time the
// untraced deployment spent on the same blocks.
func (r replay) table(res *result, t *tally, ref sessionResult) {
	layers, sum, glue := r.budget()
	note(res, "reference: %d blocks untraced through the deployment, %.2f Msamples, %.3f s wall, %.3f s CPU", t.blocks, float64(ref.samples)/1e6, ref.wall.Seconds(), ref.cpuS)
	note(res, "budget: layer self time in the replay")
	for _, l := range budgetLayers {
		note(res, "  %-12s %9.3f s %6.1f%%", l, layers[l], 100*ratio(layers[l], sum))
	}
	note(res, "  %-12s %9.3f s  = %.2f of the untraced %.3f s CPU (span bookkeeping and glue: %.3f s)", "sum", sum, ratio(sum, ref.cpuS), ref.cpuS, glue)
}
