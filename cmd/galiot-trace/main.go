// Command galiot-trace renders assembled distributed traces: the span
// trees the obs.TraceStore stitches together from gateway and cloud
// processes via the wire-propagated trace context (backhaul v3).
//
// It reads traces from a live observability endpoint (-addr, the
// /trace/slowest and /trace/tree routes an ObsServer with a Traces store
// serves). Output is an indented span tree per trace with per-stage
// durations and the critical path, or raw JSON with -json.
//
// With -assert the command is a CI gate over every retained trace: it
// exits non-zero unless the endpoint holds at least one trace, zero orphan
// spans (every span's parent was assembled into the same tree), and at
// least one trace stitched across both processes (gateway-side and
// cloud-side spans sharing one trace ID).
//
//	galiot-trace -addr 127.0.0.1:8077 -slowest 5
//	galiot-trace -addr 127.0.0.1:8077 -id 0xe302...   # one trace by ID
//	galiot-trace -addr 127.0.0.1:8077 -assert         # CI continuity gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/galiot"
)

func main() {
	var (
		addr    = flag.String("addr", "", "read traces from this live observability endpoint (host:port serving /trace/slowest)")
		id      = flag.String("id", "", "show only this trace (decimal or 0x hex trace ID)")
		slowest = flag.Int("slowest", 10, "fetch the N slowest traces (0 = all)")
		asJSON  = flag.Bool("json", false, "emit the selected trees as JSON instead of rendering them")
		doAss   = flag.Bool("assert", false, "continuity gate: exit non-zero unless traces exist, zero spans are orphaned, and at least one trace spans both gateway and cloud")
	)
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "galiot-trace: -addr is required")
		os.Exit(2)
	}

	// The gate must judge every retained trace, not the slowest-N view a
	// human would page through (an orphan in trace #11 still fails CI).
	n := *slowest
	if *doAss {
		n = 0
	}
	trees, err := fetch(*addr, *id, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-trace:", err)
		os.Exit(1)
	}

	if *doAss {
		if err := assert(trees); err != nil {
			fmt.Fprintln(os.Stderr, "galiot-trace: ASSERT FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("galiot-trace: OK: %d traces, %d spans, 0 orphans, %d stitched gateway+cloud\n",
			len(trees), countSpans(trees), countStitched(trees))
		return
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(trees); err != nil {
			fmt.Fprintln(os.Stderr, "galiot-trace:", err)
			os.Exit(1)
		}
		return
	}

	for i, tr := range trees {
		if i > 0 {
			fmt.Println()
		}
		var b strings.Builder
		render(&b, tr)
		fmt.Print(b.String())
	}
	if len(trees) == 0 {
		fmt.Println("no traces")
	}
}

// fetch pulls trees from a live ObsServer: one tree by ID, or the slowest
// n (0 = every retained tree).
func fetch(addr, id string, slowest int) ([]galiot.ObsTraceTree, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	if id != "" {
		var tr galiot.ObsTraceTree
		if err := getJSON(client, fmt.Sprintf("http://%s/trace/tree?id=%s", addr, id), &tr); err != nil {
			return nil, err
		}
		return []galiot.ObsTraceTree{tr}, nil
	}
	var trees []galiot.ObsTraceTree
	if err := getJSON(client, fmt.Sprintf("http://%s/trace/slowest?n=%d", addr, slowest), &trees); err != nil {
		return nil, err
	}
	return trees, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// assert is the CI continuity gate over the selected trees.
func assert(trees []galiot.ObsTraceTree) error {
	if len(trees) == 0 {
		return fmt.Errorf("no traces assembled")
	}
	orphans := 0
	for _, tr := range trees {
		orphans += tr.Orphans
	}
	if orphans != 0 {
		return fmt.Errorf("%d orphan spans (a parent span was never assembled into its trace)", orphans)
	}
	if countStitched(trees) == 0 {
		return fmt.Errorf("no trace carries both gateway-side and cloud-side spans")
	}
	return nil
}

func countSpans(trees []galiot.ObsTraceTree) int {
	n := 0
	for _, tr := range trees {
		n += len(tr.Spans)
	}
	return n
}

// countStitched counts traces whose spans cross the process boundary —
// the wire-propagated context did its job.
func countStitched(trees []galiot.ObsTraceTree) int {
	n := 0
	for _, tr := range trees {
		var gw, cl bool
		for _, sp := range tr.Spans {
			switch {
			case strings.HasPrefix(sp.Kind, "gateway"):
				gw = true
			case strings.HasPrefix(sp.Kind, "cloud"):
				cl = true
			}
		}
		if gw && cl {
			n++
		}
	}
	return n
}

// render writes one trace as an indented span tree plus its critical path.
func render(w *strings.Builder, tr galiot.ObsTraceTree) {
	fmt.Fprintf(w, "trace 0x%016x  %s  %d spans", tr.TraceID, ms(tr.Duration), len(tr.Spans))
	if tr.Replayed {
		fmt.Fprintf(w, "  [replayed]")
	}
	if tr.Orphans > 0 {
		fmt.Fprintf(w, "  [%d orphans]", tr.Orphans)
	}
	fmt.Fprintln(w)

	// Tree layout: children under their parent, roots (and orphans, whose
	// parent is missing) at the top level, all in span start order — the
	// store already sorted Spans that way.
	known := make(map[uint64]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		known[sp.SpanID] = true
	}
	children := make(map[uint64][]galiot.ObsSpanSnapshot)
	var roots []galiot.ObsSpanSnapshot
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && known[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var base int64
	if len(tr.Spans) > 0 {
		base = tr.Spans[0].Start
	}
	var walk func(sp galiot.ObsSpanSnapshot, depth int)
	walk = func(sp galiot.ObsSpanSnapshot, depth int) {
		pad := strings.Repeat("  ", depth+1)
		fmt.Fprintf(w, "%s%s  span=0x%016x  +%s  %s", pad, sp.Kind, sp.SpanID, ms(sp.Start-base), ms(sp.End-sp.Start))
		if sp.DroppedStages > 0 {
			fmt.Fprintf(w, "  [%d stages dropped]", sp.DroppedStages)
		}
		fmt.Fprintln(w)
		for _, st := range sp.Stages {
			fmt.Fprintf(w, "%s  · %-14s %10s  value=%g\n", pad, st.Name, ms(st.Dur), st.Value)
		}
		for _, c := range children[sp.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}

	if len(tr.CriticalPath) > 0 {
		parts := make([]string, 0, len(tr.CriticalPath))
		for _, step := range tr.CriticalPath {
			parts = append(parts, fmt.Sprintf("%s/%s %s", step.Kind, step.Stage, ms(step.Dur)))
		}
		fmt.Fprintf(w, "  critical path (%s): %s\n", ms(tr.CriticalDur), strings.Join(parts, " -> "))
	}
}

// ms renders a nanosecond duration/offset compactly.
func ms(ns int64) string {
	switch {
	case ns >= 1e6 || ns <= -1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3 || ns <= -1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
