// Command galiot-top is the operator's one-glance view of a running
// galiot process: it scrapes the observability endpoint of a
// galiot-cloud or galiot-gateway run (-addr) and renders
// health, the fleet metrics rollup and the recent event journal as a
// compact text dashboard. One-shot by default; -watch refreshes on an
// interval until interrupted, and -json emits the raw scrape instead of
// the rendered view.
//
// Usage:
//
//	galiot-top -addr 127.0.0.1:9900
//	galiot-top -addr 127.0.0.1:9900 -watch 2s
//	galiot-top -addr 127.0.0.1:9900 -json
//
// With -assert the dashboard becomes a scriptable gate: each
// comma-separated `series op value` expression is checked against the
// fleet rollup (counters gate on the total, gauges on the max, histograms
// on the count) and the process exits non-zero when any fails. -rollup
// evaluates a canned /fleet/metrics JSON file instead of scraping, so the
// same gate runs against CI artifacts:
//
//	galiot-top -addr 127.0.0.1:9900 -assert 'gateway_spool_dropped_total==0,wal_live_bytes<=1048576'
//	galiot-top -rollup ROLLUP.json -assert 'cloud_segments_decoded_total>=100'
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"flag"

	"repro/galiot"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9900", "observability endpoint to scrape (host:port of a -obs-addr)")
		watch   = flag.Duration("watch", 0, "refresh on this interval until interrupted (0 = one shot)")
		asJSON  = flag.Bool("json", false, "emit the raw scrape as one JSON object instead of the text view")
		events  = flag.Int("events", 12, "journal entries to show (most recent; 0 = all)")
		asserts = flag.String("assert", "", "comma-separated threshold gates, e.g. 'gateway_spool_dropped_total==0,wal_live_bytes<=1048576'; exit 1 when any fails")
		rollup  = flag.String("rollup", "", "evaluate -assert against this /fleet/metrics JSON file instead of scraping -addr")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + *addr

	if *asserts != "" {
		os.Exit(runAsserts(client, base, *rollup, *asserts))
	}
	if *rollup != "" {
		fmt.Fprintln(os.Stderr, "galiot-top: -rollup only applies to -assert mode")
		os.Exit(2)
	}
	if *watch <= 0 {
		v, err := fetch(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galiot-top:", err)
			os.Exit(1)
		}
		emit(v, *asJSON, *events, base)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*watch)
	defer tick.Stop()
	for {
		v, err := fetch(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galiot-top:", err)
		} else {
			if !*asJSON {
				// Clear the terminal between refreshes so the view reads
				// like top, not like a scrolling log.
				fmt.Print("\x1b[2J\x1b[H")
			}
			emit(v, *asJSON, *events, base)
		}
		select {
		case <-sig:
			return
		case <-tick.C:
		}
	}
}

// view is one full scrape of an observability endpoint.
type view struct {
	Live   galiot.ObsHealthSnapshot `json:"healthz"`
	Ready  galiot.ObsHealthSnapshot `json:"readyz"`
	Fleet  galiot.ObsFleetSnapshot  `json:"fleet"`
	Events []galiot.ObsEvent        `json:"events"`
}

// fetch scrapes the four observability surfaces. Health endpoints answer
// 503 when degraded by design, so any decodable body counts as a
// successful scrape there.
func fetch(client *http.Client, base string) (*view, error) {
	v := &view{}
	if err := getJSON(client, base+"/healthz", &v.Live, http.StatusOK, http.StatusServiceUnavailable); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/readyz", &v.Ready, http.StatusOK, http.StatusServiceUnavailable); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/fleet/metrics", &v.Fleet, http.StatusOK); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/events/recent", &v.Events, http.StatusOK); err != nil {
		return nil, err
	}
	return v, nil
}

// getJSON fetches url and decodes the body when the status is one of ok.
func getJSON(client *http.Client, url string, into any, ok ...int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	accepted := false
	for _, s := range ok {
		if resp.StatusCode == s {
			accepted = true
			break
		}
	}
	if !accepted {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(into); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// emit prints one scrape in the selected format.
func emit(v *view, asJSON bool, maxEvents int, base string) {
	if asJSON {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "galiot-top:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", data)
		return
	}
	fmt.Print(render(v, maxEvents, base))
}

// render formats the text dashboard: health verdicts, the fleet rollup
// (counters, gauge extremes, histogram quantiles) and the event tail.
func render(v *view, maxEvents int, base string) string {
	var w strings.Builder
	fmt.Fprintf(&w, "galiot-top %s\n", base)
	fmt.Fprintf(&w, "health: %s    ready: %s\n", verdict(v.Live), verdict(v.Ready))
	for _, c := range v.Ready.Checks {
		mark := "ok"
		if !c.Healthy {
			mark = "FAIL"
		}
		fmt.Fprintf(&w, "  %-4s %-36s %s\n", mark, c.Name, c.Detail)
	}

	fmt.Fprintf(&w, "targets: %s\n", strings.Join(v.Fleet.Targets, " "))
	for _, name := range sortedKeys(v.Fleet.Errors) {
		fmt.Fprintf(&w, "  SCRAPE ERROR %s: %s\n", name, v.Fleet.Errors[name])
	}
	if len(v.Fleet.Counters) > 0 {
		fmt.Fprintf(&w, "counters:\n")
		for _, name := range sortedKeys(v.Fleet.Counters) {
			c := v.Fleet.Counters[name]
			fmt.Fprintf(&w, "  %-44s %12d  %s\n", name, c.Total, perTarget(c.PerTarget))
		}
	}
	if len(v.Fleet.Gauges) > 0 {
		fmt.Fprintf(&w, "gauges:\n")
		for _, name := range sortedKeys(v.Fleet.Gauges) {
			g := v.Fleet.Gauges[name]
			fmt.Fprintf(&w, "  %-44s sum=%-10d min=%d@%s max=%d@%s\n",
				name, g.Sum, g.Min, g.MinTarget, g.Max, g.MaxTarget)
		}
	}
	if len(v.Fleet.Histograms) > 0 {
		fmt.Fprintf(&w, "histograms:\n")
		for _, name := range sortedKeys(v.Fleet.Histograms) {
			h := v.Fleet.Histograms[name]
			fmt.Fprintf(&w, "  %-44s count=%-10d p50=%-8d p99=%d", name, h.Count, h.P50, h.P99)
			if h.Exemplar != nil {
				// The high-watermark observation's trace: feed it to
				// galiot-trace -id to see where the time went.
				fmt.Fprintf(&w, "  ex=%d trace=0x%016x", h.Exemplar.Value, h.Exemplar.TraceID)
			}
			fmt.Fprintf(&w, "\n")
		}
	}

	evs := v.Events
	if maxEvents > 0 && len(evs) > maxEvents {
		evs = evs[len(evs)-maxEvents:]
	}
	fmt.Fprintf(&w, "events (%d of %d):\n", len(evs), len(v.Events))
	for _, e := range evs {
		burst := ""
		if e.Count > 1 {
			burst = fmt.Sprintf(" x%d", e.Count)
		}
		fmt.Fprintf(&w, "  #%-6d %-36s value=%d%s\n", e.Seq, e.Name, e.Value, burst)
	}
	return w.String()
}

// verdict reduces a health snapshot to its one-word headline.
func verdict(s galiot.ObsHealthSnapshot) string {
	if s.Healthy {
		return fmt.Sprintf("OK (%d checks)", len(s.Checks))
	}
	bad := 0
	for _, c := range s.Checks {
		if !c.Healthy {
			bad++
		}
	}
	return fmt.Sprintf("DEGRADED (%d/%d checks failing)", bad, len(s.Checks))
}

// sortedKeys returns a map's keys in order, so the view (and the test
// diffing it) is stable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perTarget formats a counter's per-target breakdown, key order.
func perTarget(m map[string]uint64) string {
	var b strings.Builder
	for i, name := range sortedKeys(m) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, m[name])
	}
	return b.String()
}
