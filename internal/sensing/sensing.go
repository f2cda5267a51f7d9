// Package sensing implements the paper's Sec. 6 "multi-technology wireless
// sensing" direction: the per-frame complex channel gains that GalioT's
// cloud already estimates for interference cancellation are aggregated
// into a sensing signal. Individually, low-power devices transmit too
// rarely and too noisily to sense anything; collectively, the heterogeneous
// fleet gives a usable event detector — exactly the "several wimpy devices
// may collectively offer more insights than one high-power node" argument.
package sensing

import (
	"math"
	"math/cmplx"
	"sort"
)

// Observation is one decoded frame's channel measurement.
type Observation struct {
	Tech string
	Time float64    // seconds (or any monotonic unit)
	Gain complex128 // estimated complex channel gain
}

// Event is a detected channel disturbance.
type Event struct {
	Start, End float64 // time bounds of the flagged observations
	Count      int     // observations inside the event
	MeanDropDB float64 // average gain drop versus baseline while flagged
}

// Tracker maintains per-technology channel baselines and flags
// observations that deviate from them. The zero value is not usable; use
// NewTracker.
type Tracker struct {
	// ThresholdDB is the gain deviation (in dB, absolute value) beyond
	// which an observation is flagged (default 2 dB).
	ThresholdDB float64
	// Baseline window: how many quiet observations per technology form the
	// reference magnitude (default 8).
	Window int

	perTech map[string][]float64 // recent quiet |gain| values per technology
	flagged []Observation
	events  []Event
	open    *Event
	sumDrop float64
}

// NewTracker returns a tracker with the given flagging threshold in dB
// (<= 0 selects the 2 dB default).
func NewTracker(thresholdDB float64) *Tracker {
	if thresholdDB <= 0 {
		thresholdDB = 2
	}
	return &Tracker{
		ThresholdDB: thresholdDB,
		Window:      8,
		perTech:     map[string][]float64{},
	}
}

// baseline returns the median quiet gain for a technology, or 0 if the
// tracker has not seen enough observations yet.
func (t *Tracker) baseline(tech string) float64 {
	hist := t.perTech[tech]
	if len(hist) < 3 {
		return 0
	}
	c := append([]float64{}, hist...)
	sort.Float64s(c)
	return c[len(c)/2]
}

// Observe ingests one measurement and reports whether it was flagged as
// deviating from the technology's baseline. Observations must arrive in
// time order.
func (t *Tracker) Observe(o Observation) (flagged bool, deviationDB float64) {
	mag := cmplx.Abs(o.Gain)
	if mag <= 0 || math.IsNaN(mag) {
		return false, 0
	}
	base := t.baseline(o.Tech)
	if base <= 0 {
		// still learning: everything is baseline material
		t.learn(o.Tech, mag)
		return false, 0
	}
	deviationDB = 20 * math.Log10(mag/base)
	if math.Abs(deviationDB) >= t.ThresholdDB {
		t.flag(o, deviationDB)
		return true, deviationDB
	}
	t.learn(o.Tech, mag)
	if t.open != nil {
		// quiet observation closes any open event
		t.closeEvent(o.Time)
	}
	return false, deviationDB
}

func (t *Tracker) learn(tech string, mag float64) {
	hist := append(t.perTech[tech], mag)
	if len(hist) > t.Window {
		hist = hist[len(hist)-t.Window:]
	}
	t.perTech[tech] = hist
}

func (t *Tracker) flag(o Observation, devDB float64) {
	t.flagged = append(t.flagged, o)
	if t.open == nil {
		t.open = &Event{Start: o.Time}
		t.sumDrop = 0
	}
	t.open.End = o.Time
	t.open.Count++
	t.sumDrop += devDB
}

func (t *Tracker) closeEvent(now float64) {
	if t.open == nil {
		return
	}
	ev := *t.open
	if ev.Count > 0 {
		ev.MeanDropDB = t.sumDrop / float64(ev.Count)
	}
	t.events = append(t.events, ev)
	t.open = nil
	_ = now
}

// Events returns the completed events plus any still-open one.
func (t *Tracker) Events() []Event {
	out := append([]Event{}, t.events...)
	if t.open != nil {
		ev := *t.open
		if ev.Count > 0 {
			ev.MeanDropDB = t.sumDrop / float64(ev.Count)
		}
		out = append(out, ev)
	}
	return out
}

// Coverage reports how many distinct technologies contributed flagged
// observations — the "collective" aspect: an event seen across several
// heterogeneous devices is far less likely to be a single device's fading
// artifact.
func (t *Tracker) Coverage() int {
	seen := map[string]bool{}
	for _, o := range t.flagged {
		seen[o.Tech] = true
	}
	return len(seen)
}
