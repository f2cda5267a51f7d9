package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/galiot"
)

// runAsserts is -assert mode's whole lifecycle: load or scrape the
// metrics, evaluate the gates, print one line per gate, and return the
// process exit code (0 all pass, 1 any fail, 2 usage or scrape trouble).
func runAsserts(client *http.Client, base, metricsPath, spec string) int {
	asserts, err := parseAsserts(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-top:", err)
		return 2
	}
	var snap *galiot.ObsSnapshot
	if metricsPath != "" {
		snap, err = loadSnapshot(metricsPath)
	} else {
		snap = &galiot.ObsSnapshot{}
		err = getJSON(client, base+"/metrics", snap, http.StatusOK)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-top:", err)
		return 2
	}
	lines, ok := evalAsserts(snap, asserts)
	for _, line := range lines {
		fmt.Println(line)
	}
	if !ok {
		return 1
	}
	return 0
}

// assertion is one parsed threshold expression from -assert.
type assertion struct {
	name  string
	op    string
	value int64
}

// assertOps is the comparison vocabulary, longest operators first so that
// "<=" never parses as "<" with a stray "=" in the number.
var assertOps = []string{"<=", ">=", "==", "!=", "<", ">"}

// parseAsserts splits a comma-separated -assert expression list into
// assertions. Each expression is `series op value`, e.g.
// "gateway_spool_depth_count<=8" or "wal_live_bytes==0". Whitespace around
// expressions is tolerated (shells often add it around commas).
func parseAsserts(spec string) ([]assertion, error) {
	var out []assertion
	for _, raw := range strings.Split(spec, ",") {
		expr := strings.TrimSpace(raw)
		if expr == "" {
			continue
		}
		var a assertion
		for _, op := range assertOps {
			if i := strings.Index(expr, op); i > 0 {
				a = assertion{name: strings.TrimSpace(expr[:i]), op: op}
				v, err := strconv.ParseInt(strings.TrimSpace(expr[i+len(op):]), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("assert %q: bad threshold: %v", expr, err)
				}
				a.value = v
				break
			}
		}
		if a.op == "" {
			return nil, fmt.Errorf("assert %q: no comparison operator (want one of %s)", expr, strings.Join(assertOps, " "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-assert given but no expressions parsed from %q", spec)
	}
	return out, nil
}

// resolveSeries reads the asserted value of one series from the
// snapshot: counters and gauges gate on their value. The second return is
// false when the process does not register the series.
func resolveSeries(snap *galiot.ObsSnapshot, name string) (int64, bool) {
	if c, ok := snap.Counters[name]; ok {
		return int64(c), true
	}
	if g, ok := snap.Gauges[name]; ok {
		return g, true
	}
	return 0, false
}

// evalAsserts checks every assertion against the snapshot and returns one
// result line per assertion plus the overall verdict. A series absent from
// the snapshot fails its assertion: a gate that silently passes because
// the metric was renamed is worse than a false alarm.
func evalAsserts(snap *galiot.ObsSnapshot, asserts []assertion) (lines []string, ok bool) {
	ok = true
	for _, a := range asserts {
		got, found := resolveSeries(snap, a.name)
		if !found {
			lines = append(lines, fmt.Sprintf("FAIL %s%s%d (series not in metrics)", a.name, a.op, a.value))
			ok = false
			continue
		}
		pass := false
		switch a.op {
		case "<=":
			pass = got <= a.value
		case ">=":
			pass = got >= a.value
		case "==":
			pass = got == a.value
		case "!=":
			pass = got != a.value
		case "<":
			pass = got < a.value
		case ">":
			pass = got > a.value
		}
		mark := "ok  "
		if !pass {
			mark = "FAIL"
			ok = false
		}
		lines = append(lines, fmt.Sprintf("%s %s%s%d (value %d)", mark, a.name, a.op, a.value, got))
	}
	return lines, ok
}

// metricsTag prefixes the snapshot on galiot-cloud's shutdown log line.
const metricsTag = "metrics: "

// loadSnapshot reads a saved metrics snapshot from a file: the body of a
// /metrics response, or a log whose last `metrics: {...}` line carries it
// (galiot-cloud's shutdown line), so the gate can run in CI without a live
// endpoint.
func loadSnapshot(path string) (*galiot.ObsSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndex(data, []byte(metricsTag)); i >= 0 {
		data = data[i+len(metricsTag):]
	}
	var snap galiot.ObsSnapshot
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}
