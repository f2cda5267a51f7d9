package cancel

import (
	"bytes"
	"slices"
	"sort"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/phy"
)

// Candidate is one technology suspected to be present in a capture, ranked
// by its estimated received power.
type Candidate struct {
	Tech   phy.Technology
	Offset int     // approximate packet start (preamble correlation peak)
	Score  float64 // normalized preamble correlation in [0, 1]
	Power  float64 // estimated received power of the candidate (linear)
	idx    int     // index of Tech in the decoder's technology list
}

// Stats aggregates what CloudDecode did to resolve a capture.
type Stats struct {
	SICRounds    int // successful decode-and-subtract iterations
	KillFreq     int // KILL-FREQUENCY invocations
	KillCSS      int // KILL-CSS invocations
	KillCodes    int // KILL-CODES invocations
	FailedDecode int // decode attempts that produced no valid frame
	Duplicates   int // re-decodes of an already recovered frame (imperfect cancellation)
}

// Add accumulates other into s, field by field. Aggregators (the perf
// harness, the cloud's per-session totals) all sum the same way instead of
// each re-listing the fields and drifting when one is added.
func (s *Stats) Add(other Stats) {
	s.SICRounds += other.SICRounds
	s.KillFreq += other.KillFreq
	s.KillCSS += other.KillCSS
	s.KillCodes += other.KillCodes
	s.FailedDecode += other.FailedDecode
	s.Duplicates += other.Duplicates
}

// Decoder performs collision decoding over a fixed technology set. Every
// waveform it correlates or filters with is built once, by NewDecoder, and
// only read afterwards, so one Decoder may serve concurrent decodes.
type Decoder struct {
	techs []phy.Technology
	fs    float64
	pres  [][]complex128 // pres[i] is techs[i]'s preamble at fs
	kills []killData     // kills[i] is what techs[i]'s kill filter reads
	// useKillFilters enables the Algorithm-1 kill-filter fallback; when
	// false the decoder is the plain SIC baseline. NewDecoder sets it and
	// NewSIC clears it.
	useKillFilters bool
	// DisabledFilters suppresses individual kill-filter classes, for
	// ablation studies; a class mapped to true behaves as if no filter
	// existed for it.
	DisabledFilters map[phy.Class]bool
	// MaxRounds bounds the decode loop (default 32; the loop also stops as
	// soon as a full pass makes no progress, so the cap only guards against
	// pathological captures).
	MaxRounds int
}

// killData is what one technology's kill filter reads: the tones and notch
// width of KILL-FREQUENCY, the base chirps of KILL-CSS or the code
// waveforms of KILL-CODES. ok is false when the technology does not
// implement its class's interface, so there is no filter for it.
type killData struct {
	ok       bool
	tones    []float64
	width    float64
	down, up []complex128
	codes    [][]complex128
}

// NewDecoder returns a CloudDecode decoder (kill filters enabled) over
// techs at sample rate fs. It builds every preamble and kill-filter
// waveform, so it panics where a technology cannot be modulated at fs.
func NewDecoder(techs []phy.Technology, fs float64) *Decoder {
	d := &Decoder{techs: techs, fs: fs, useKillFilters: true}
	d.pres, d.kills = make([][]complex128, len(techs)), make([]killData, len(techs))
	for i, t := range techs {
		d.pres[i] = t.Preamble(fs)
		k := &d.kills[i]
		switch t.Class() {
		case phy.ClassFSK:
			if tt, ok := t.(phy.ToneTechnology); ok {
				k.ok, k.tones, k.width = true, tt.Tones(), FSKKillWidth(t.BitRate())
			}
		case phy.ClassPSK:
			if nb, ok := t.(phy.NarrowbandTechnology); ok {
				k.ok, k.tones, k.width = true, []float64{nb.Center()}, nb.OccupiedBandwidth()
			}
		case phy.ClassCSS:
			if ct, ok := t.(phy.ChirpTechnology); ok {
				k.ok, k.down, k.up = true, ct.Chirp(false, fs), ct.Chirp(true, fs)
			}
		case phy.ClassDSSS:
			if cd, ok := t.(phy.CodedTechnology); ok {
				k.ok, k.codes = true, cd.CodeWaveforms(fs)
			}
		}
	}
	return d
}

// SampleRate returns the rate the decoder's waveforms were built at.
func (d *Decoder) SampleRate() float64 { return d.fs }

// NewSIC returns the plain successive-interference-cancellation baseline.
func NewSIC(techs []phy.Technology, fs float64) *Decoder {
	d := NewDecoder(techs, fs)
	d.useKillFilters = false
	return d
}

// Classify correlates each technology's preamble against the capture and
// returns the candidates above minScore, strongest estimated power first.
// The capture is transformed once for the whole preamble bank.
func (d *Decoder) Classify(rx []complex128) []Candidate {
	var out []Candidate
	// A preamble that is empty or longer than rx has a nil metric, whose
	// MaxPeak index is -1.
	for i, metric := range dsp.NormalizedCorrelateAll(rx, d.pres...) {
		pk := dsp.MaxPeak(metric)
		if pk.Index < 0 || pk.Value < minScore {
			continue
		}
		// Estimated candidate power: correlation square times the local
		// window power (the fraction of window power explained by the
		// template).
		winPower := dsp.Power(rx[pk.Index:min(pk.Index+len(d.pres[i]), len(rx))])
		out = append(out, Candidate{
			Tech:   d.techs[i],
			Offset: pk.Index,
			Score:  pk.Value,
			Power:  pk.Value * pk.Value * winPower,
			idx:    i,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Power > out[j].Power })
	return out
}

// tryDecode attempts to decode one frame of tech from rx, accepting only
// CRC-valid frames.
func tryDecode(t phy.Technology, rx []complex128, fs float64) (*phy.Frame, bool) {
	frame, err := t.Demodulate(rx, fs)
	if err != nil || frame == nil || !frame.CRCOK {
		return nil, false
	}
	return frame, true
}

// minScore is the preamble correlation below which a technology is not
// considered present.
const minScore = 0.05

// collisionScore is the preamble correlation above which a second
// technology in a segment marks it a suspected collision: the edge does not
// trust a single-pass decode of such a segment and ships it instead.
const collisionScore = 0.15

// EdgeDecode is the paper's Sec. 4 "Edge vs. the Cloud" policy on one
// segment: decode at the edge assuming no collision, and leave everything
// that assumption cannot be trusted on to the cloud. The segment is
// classified once; if any technology other than the strongest candidate
// scores above collisionScore it is a suspected collision and is not
// demodulated at all. Otherwise the strongest candidate is demodulated once
// and only a CRC-clean frame is returned. A nil frame means ship.
//
// lastResort is the form for a segment that will never reach the cloud (the
// gateway's spool-overflow drop path): the strongest candidate is
// demodulated even when a collision is suspected, since one frame out of a
// collision beats none.
func (d *Decoder) EdgeDecode(rx []complex128, lastResort bool) *phy.Frame {
	cands := d.Classify(rx)
	if len(cands) == 0 {
		return nil
	}
	best := cands[0]
	if !lastResort {
		for _, c := range cands[1:] {
			if c.Score > collisionScore && c.Tech.Name() != best.Tech.Name() {
				return nil
			}
		}
	}
	frame, _ := tryDecode(best.Tech, rx, d.fs)
	return frame
}

// subtractFrame reconstructs a decoded frame's waveform and subtracts it
// from rx in place, refining the alignment over ±search samples and
// re-estimating the complex gain at the best alignment. It returns the
// fraction of the frame's span energy removed (1 = perfect cancellation).
func subtractFrame(rx []complex128, t phy.Technology, frame *phy.Frame, fs float64, search int) float64 {
	ref, err := t.Modulate(frame.Payload, fs)
	if err != nil || len(ref) == 0 {
		return 0
	}
	if frame.CFO != 0 {
		// Reconstruct with the receiver's carrier-offset estimate so the
		// subtraction stays coherent over the whole burst.
		dsp.Mix(ref, frame.CFO, 0, fs)
	}
	refE := dsp.Energy(ref)
	if refE == 0 {
		return 0
	}
	bestOff, bestMag := frame.Offset, 0.0
	for off := frame.Offset - search; off <= frame.Offset+search; off++ {
		if off < 0 || off+len(ref) > len(rx) {
			continue
		}
		proj := dsp.Dot(rx[off:off+len(ref)], ref)
		if m := real(proj)*real(proj) + imag(proj)*imag(proj); m > bestMag {
			bestMag, bestOff = m, off
		}
	}
	if bestMag == 0 {
		return 0
	}
	seg := rx[bestOff:min(bestOff+len(ref), len(rx))]
	before := dsp.Energy(seg)
	// Per-block complex gains: a single global gain decoheres over long
	// bursts whenever the receiver's CFO estimate is off by even a few Hz;
	// estimating the gain over short blocks tracks the residual phase
	// drift and keeps the cancellation deep.
	block := len(seg) / 32
	if block < 512 {
		block = 512
	}
	for from := 0; from < len(seg); from += block {
		to := from + block
		if to > len(seg) {
			to = len(seg)
		}
		e := dsp.Energy(ref[from:to])
		if e == 0 {
			continue
		}
		g := dsp.Dot(seg[from:to], ref[from:to]) / complex(e, 0)
		for i := from; i < to; i++ {
			seg[i] -= g * ref[i]
		}
	}
	after := dsp.Energy(seg)
	if before == 0 {
		return 0
	}
	return 1 - after/before
}

// killTech removes technology i from rx using the kill filter for its
// modulation class, returning the filtered view and bumping that filter's
// counter.
func (d *Decoder) killTech(rx []complex128, i int, stats *Stats) []complex128 {
	class, k := d.techs[i].Class(), &d.kills[i]
	if !k.ok || d.DisabledFilters[class] {
		return rx
	}
	switch class {
	case phy.ClassFSK, phy.ClassPSK:
		stats.KillFreq++
		return KillFrequency(rx, k.tones, k.width, d.fs)
	case phy.ClassCSS:
		stats.KillCSS++
		return killCSS(rx, k.down, k.up)
	case phy.ClassDSSS:
		stats.KillCodes++
		return killCodes(rx, d.pres[i], k.codes, minScore)
	}
	return rx
}

// Decode runs the configured strategy on a capture and returns every frame
// recovered (CRC-valid only), in the order they were decoded, along with
// statistics. This is Algorithm 1 of the paper when useKillFilters is set:
//
//  1. classify the residual and pick the strongest candidate S_i;
//  2. try to decode S_i directly; on success cancel it (SIC) and repeat;
//  3. on failure, kill the weakest other candidate S_j (by modulation
//     class), retry decoding S_i on the filtered view, and if that
//     succeeds cancel S_i from the *unfiltered* residual so S_j is
//     preserved for the next round;
//  4. move to the next candidate when no kill helps; stop when a full pass
//     makes no progress.
func (d *Decoder) Decode(rx []complex128) ([]*phy.Frame, Stats) {
	return d.DecodeTraced(rx, nil)
}

// killStageName maps a kill-filter invocation to its trace stage name.
// Constant strings keep per-iteration recording allocation-free.
func killStageName(c phy.Class) string {
	switch c {
	case phy.ClassFSK, phy.ClassPSK:
		return "kill_freq"
	case phy.ClassCSS:
		return "kill_css"
	case phy.ClassDSSS:
		return "kill_codes"
	}
	return "kill_none"
}

// DecodeTraced is Decode with per-stage trace recording: one "sic_round"
// stage per successful decode-and-subtract (Value = residual energy after
// the subtraction) and one "kill_*" stage per kill-filter iteration
// (Value = energy of the filtered view). A nil span reduces to Decode —
// the residual-energy computations are gated on the span, so untraced
// decodes pay nothing.
func (d *Decoder) DecodeTraced(rx []complex128, sp *obs.Span) ([]*phy.Frame, Stats) {
	var stats Stats
	residual := dsp.Clone(rx)
	var decoded []*phy.Frame
	maxRounds := d.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 32
	}
	// accept cancels a decoded frame from the unfiltered residual, so the
	// technologies a kill filter removed stay recoverable, and keeps it
	// unless it is a re-decode. Same tech and payload anywhere in one
	// capture is treated as a residual re-decode: independent
	// retransmissions with identical payloads inside a single shipped
	// segment are far rarer than imperfect cancellation.
	accept := func(t phy.Technology, f *phy.Frame) {
		subtractFrame(residual, t, f, d.fs, 4)
		if slices.ContainsFunc(decoded, func(prev *phy.Frame) bool {
			return prev.Tech == f.Tech && bytes.Equal(prev.Payload, f.Payload)
		}) {
			stats.Duplicates++
			return
		}
		decoded = append(decoded, f)
		stats.SICRounds++
	}
	var others []Candidate // kill-filter scratch, reused across retries
	for round := 0; round < maxRounds; round++ {
		tRound := sp.Now()
		cands := d.Classify(residual)
		if len(cands) == 0 {
			break
		}
		progress := false
		for ci, c := range cands {
			if frame, ok := tryDecode(c.Tech, residual, d.fs); ok {
				accept(c.Tech, frame)
				progress = true
				break
			}
			stats.FailedDecode++
			if !d.useKillFilters {
				// Strict SIC (Weber et al., the paper's baseline): decoding
				// proceeds in decreasing power order and terminates the
				// moment the strongest remaining signal cannot be decoded —
				// the weaker ones are buried beneath it.
				break
			}
			// Kill-filter fallback: remove other candidates, weakest
			// first, and retry this technology on the filtered view.
			others = others[:0]
			for oi, o := range cands {
				if oi != ci && o.Tech.Name() != c.Tech.Name() {
					others = append(others, o)
				}
			}
			// weakest first (Alg. 1 line 7)
			sort.Slice(others, func(a, b int) bool { return others[a].Power < others[b].Power })
			filtered := residual
			for _, o := range others {
				tKill := sp.Now()
				filtered = d.killTech(filtered, o.idx, &stats)
				if sp != nil {
					sp.Stage(killStageName(o.Tech.Class()), sp.Now()-tKill, dsp.Energy(filtered))
				}
				if frame, ok := tryDecode(c.Tech, filtered, d.fs); ok {
					accept(c.Tech, frame)
					progress = true
					break
				}
				stats.FailedDecode++
			}
			if progress {
				break
			}
		}
		if progress && sp != nil {
			// Residual energy after this round's cancellation: the falling
			// staircase of Algorithm 1, one stage per recovered frame.
			sp.Stage("sic_round", sp.Now()-tRound, dsp.Energy(residual))
		}
		if !progress {
			break
		}
	}
	return decoded, stats
}
