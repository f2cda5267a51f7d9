// Command galiot-bench runs the GalioT per-sample micro-stage gate:
// deterministic seeded workloads through every single-goroutine pipeline
// stage, a structured BENCH.json report, and (with -baseline) a
// noise-aware verdict with a non-zero exit when any stage regressed, did
// different work than its baseline, or vanished. See DESIGN.md §12.
//
// Usage:
//
//	galiot-bench -quick -out BENCH.json               # measure
//	galiot-bench -quick -baseline BENCH_BASELINE.json # measure + gate
//	galiot-bench -list                                # stage names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/perf"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "CI-sized workloads and iteration counts (~seconds, not minutes)")
		seed       = flag.Uint64("seed", 1, "root seed for every workload generator")
		out        = flag.String("out", "", "write the report JSON here ('-' or empty = stdout)")
		baseline   = flag.String("baseline", "", "compare against this baseline report; exit 1 when a stage regressed, is incomparable or is missing")
		threshold  = flag.Float64("threshold", 0, "relative regression threshold (0 = default 0.35; CI uses 2.0 across hardware)")
		profileDir = flag.String("profile-dir", "", "write per-stage CPU and heap profiles into this directory")
		stages     = flag.String("stages", "", "comma-separated stage filter (default: all; with -baseline, only these are expected)")
		list       = flag.Bool("list", false, "print stage names and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range perf.StageNames() {
			fmt.Println(n)
		}
		return
	}

	opts := perf.Options{
		Seed:       *seed,
		Quick:      *quick,
		Clock:      func() int64 { return time.Now().UnixNano() },
		ProfileDir: *profileDir,
	}
	for _, s := range strings.Split(*stages, ",") {
		if s = strings.TrimSpace(s); s != "" {
			opts.Stages = append(opts.Stages, s)
		}
	}
	rep, err := perf.Run(opts)
	if err != nil {
		fatalf("%v", err)
	}
	if err := writeReport(*out, rep); err != nil {
		fatalf("write report: %v", err)
	}

	if *baseline == "" {
		return
	}
	base, err := loadReport(*baseline)
	if err != nil {
		fatalf("load baseline: %v", err)
	}
	cmp, err := perf.Compare(base, rep, *threshold, opts.Stages)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprint(os.Stderr, cmp.Render())
	if fails := cmp.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %s\n", strings.Join(fails, ", "))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "OK: every stage within threshold of its baseline")
}

func loadReport(path string) (*perf.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r perf.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *perf.Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "galiot-bench: "+format+"\n", args...)
	os.Exit(1)
}
