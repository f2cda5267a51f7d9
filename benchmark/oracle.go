package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// oracle scores the reports of one gateway session against what the
// session's blocks transmitted. Reports arrive on the session's goroutines,
// so every method locks.
type oracle struct {
	mu       sync.Mutex
	base     int64 // absolute sample index of the session's first block
	blockLen int64
	truth    [][]packet // per block
	claimed  [][]bool   // per block, parallel to truth
	due      []time.Time
	seen     map[int64]bool // SegmentStart of every report so far

	reports    int       // reports received
	matched    int       // CRC-clean frames that claimed a transmitted packet
	badReports int       // reports carrying a CRC-clean frame that claimed none
	duplicates int       // second report for one segment
	misplaced  int       // reports whose segment starts outside the session's blocks
	early      int       // reports for a block that was not yet due
	late       int       // blocks whose segment was not out when the next block began
	latencyMs  []float64 // report time − due time of the segment's block
}

func newOracle(a *air, nblocks int, base int64) *oracle {
	o := &oracle{
		base:     base,
		blockLen: int64(a.blockLen()),
		truth:    make([][]packet, nblocks),
		claimed:  make([][]bool, nblocks),
		due:      make([]time.Time, nblocks),
		seen:     map[int64]bool{},
	}
	for i := range o.truth {
		o.truth[i] = a.blocks[i].packets
		o.claimed[i] = make([]bool, len(o.truth[i]))
	}
	return o
}

// setDue records when block i became due: its scheduled time in a paced
// session, the moment its first capture was offered in a closed loop.
func (o *oracle) setDue(i int, t time.Time) {
	o.mu.Lock()
	o.due[i] = t
	o.mu.Unlock()
}

// heldBack notes that a block's segment count was off when the next block
// began: the episode was not isolated in its own block.
func (o *oracle) heldBack() {
	o.mu.Lock()
	o.late++
	o.mu.Unlock()
}

// report scores one frames report received at time now.
func (o *oracle) report(r framesReport, now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.reports++
	if o.seen[r.SegmentStart] {
		o.duplicates++
		return
	}
	o.seen[r.SegmentStart] = true
	rel := r.SegmentStart - o.base
	if rel < 0 || rel >= o.blockLen*int64(len(o.truth)) {
		o.misplaced++
		return
	}
	i := int(rel / o.blockLen)
	if o.due[i].IsZero() || now.Before(o.due[i]) {
		o.early++
	} else {
		o.latencyMs = append(o.latencyMs, float64(now.Sub(o.due[i]))/1e6)
	}
	bad := false
	for _, f := range r.Frames {
		if !f.CRCOK {
			continue
		}
		if o.claim(i, f.Tech, f.Payload) {
			o.matched++
		} else {
			bad = true
		}
	}
	if bad {
		o.badReports++
	}
}

// claim marks the first unclaimed packet of block i with this technology
// and payload; each transmitted packet can be claimed once.
func (o *oracle) claim(i int, tech string, payload []byte) bool {
	for j, p := range o.truth[i] {
		if !o.claimed[i][j] && p.Tech == tech && bytes.Equal(p.Payload, payload) {
			o.claimed[i][j] = true
			return true
		}
	}
	return false
}

// verdict is the outcome of one or more sessions.
type verdict struct {
	Packets    int `json:"packets"`     // transmitted
	Reports    int `json:"reports"`     // frames reports received
	CloudFrame int `json:"cloud_frame"` // packets recovered by the cloud, checked against ground truth
	EdgeFrames int `json:"edge_frame"`  // packets resolved at the edge (counted by the gateway, not seen by the caller)
	Ops        int `json:"ops"`         // segments shipped
	Failed     int `json:"failed"`      // ops that failed
	// Problems lists what broke the self-check, empty when it passed.
	Problems []string `json:"problems,omitempty"`
}

func sumVerdicts(v, w verdict) verdict {
	v.Packets += w.Packets
	v.Reports += w.Reports
	v.CloudFrame += w.CloudFrame
	v.EdgeFrames += w.EdgeFrames
	v.Ops += w.Ops
	v.Failed += w.Failed
	v.Problems = append(v.Problems[:len(v.Problems):len(v.Problems)], w.Problems...)
	return v
}

// withWarmUp folds a warm-up session into a run's verdict: its packets are
// not measured, but a warm-up that broke fails the run.
func withWarmUp(v, warm verdict) verdict {
	return sumVerdicts(v, verdict{Ops: warm.Ops, Failed: warm.Failed, Problems: warm.Problems})
}

func (v verdict) correct() bool { return v.Failed == 0 && len(v.Problems) == 0 }

func (v verdict) recoveryRatio() float64 {
	if v.Packets == 0 {
		return 0
	}
	return float64(v.CloudFrame+v.EdgeFrames) / float64(v.Packets)
}

func (v verdict) opFailRatio() float64 {
	if v.Ops == 0 {
		return 0
	}
	return float64(v.Failed) / float64(v.Ops)
}

// judge closes the books on one gateway's session: c is what the gateway
// counted over the session, sessionErr how it ended. An operation is a
// shipped segment; it fails when no report came back by the end, the cloud
// rejected it as busy, the spool dropped it, the session broke, or its
// report carries a CRC-clean frame nobody transmitted.
func (o *oracle) judge(who string, packets, nblocks int, c gwCounters, sessionErr error) verdict {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := verdict{Packets: packets, Reports: o.reports, CloudFrame: o.matched, EdgeFrames: c.EdgeFrames, Ops: c.Shipped}
	answered := o.reports - o.duplicates
	if missing := c.Shipped - c.BusyRejects - answered; missing > 0 {
		v.Failed += missing
	} else if missing < 0 {
		v.Problems = append(v.Problems, fmt.Sprintf("%s: %d reports for %d shipped segments", who, answered, c.Shipped))
	}
	v.Failed += c.BusyRejects + c.SpoolDropped + o.badReports
	if sessionErr != nil {
		v.Failed++
		v.Problems = append(v.Problems, fmt.Sprintf("%s: session: %v", who, sessionErr))
	}
	if v.Failed > v.Ops { // a session that broke before shipping anything still failed
		v.Ops = v.Failed
	}
	for _, p := range []struct {
		n    int
		what string
	}{
		{o.duplicates, "segments reported twice"},
		{o.misplaced, "reports for segments outside the offered blocks"},
		{o.early, "reports for a block not yet due"},
		{c.BadReports, "replies the gateway could not parse"},
		{o.late, "blocks whose segment was not emitted inside the block"},
	} {
		if p.n > 0 {
			v.Problems = append(v.Problems, fmt.Sprintf("%s: %d %s", who, p.n, p.what))
		}
	}
	if c.Detections != nblocks {
		v.Problems = append(v.Problems, fmt.Sprintf("%s: %d segments detected in %d blocks, want one each", who, c.Detections, nblocks))
	}
	return v
}
