// Command benchmark is the repository's end-to-end benchmark: antenna
// samples in, FramesReport out, through the real gateway, backhaul and
// cloud, on seeded ground-truthed air. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds (names_test.go checks).
const defaultSeconds = 28

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env records where the numbers were taken.
type env struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env       env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string             `json:"name"`
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printer writes lines to one stream and keeps the first error, so a
// closed pipe ends the run with a failure instead of passing unnoticed.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		//lint:ignore unguardedstats only the goroutine that called run prints
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout, stderr := &printer{w: stdoutW}, &printer{w: stderrW}
	code := runWith(args, stdout, stderr)
	if code == 0 && stdout.err != nil {
		return 2
	}
	return code
}

func runWith(args []string, stdout, stderr *printer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr.w)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of them)")
		seed    = fs.Uint64("seed", 1, "input seed; run i of -runs uses seed+i")
		seconds = fs.Float64("seconds", defaultSeconds, "how long one run measures; sizes both phases")
		trace   = fs.Int("trace", 0, "1: the traced replay and the per-layer metrics instead of the end-to-end run")
		runs    = fs.Int("runs", 1, "runs per workload; prints median and quartiles per metric")
		out     = fs.String("out", "", "write every run (and the spans of traced runs) to this JSON file")
		compare = fs.String("compare", "", "compare two -out files: -compare A.json B.json (A is the parent)")
		spec    = fs.String("spec", "BENCHMARK.json", "where the bounds -compare applies are fixed")
		smoke   = fs.Bool("smoke", false, "test-sized pass: one block per phase")
		tmp     = fs.String("tmp", ".bench_tmp", "scratch directory for the durable workload's WALs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			stderr.printf("benchmark: -compare A.json B.json\n")
			return 2
		}
		return compareFiles(*spec, *compare, fs.Arg(0), stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			stderr.printf("benchmark: no workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *seconds < 1 || *runs < 1 {
		stderr.printf("benchmark: -seconds and -runs must be at least 1\n")
		return 2
	}
	rep := report{
		Env:     env{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Seed:    *seed,
		Seconds: *seconds,
	}
	stdout.printf("benchmark: %d CPU, %s, GOMAXPROCS %d, -seconds %g\n", rep.Env.NumCPU, rep.Env.GoVersion, rep.Env.GOMAXPROCS, *seconds)
	ok := true
	var last *result
	for _, w := range selected {
		wr := workloadReport{Name: w.name}
		for i := 0; i < *runs; i++ {
			o := options{seed: *seed + uint64(i), seconds: *seconds, smoke: *smoke, tmp: *tmp}
			var res *result
			var err error
			if *trace != 0 {
				res, err = traceWorkload(w, o)
			} else {
				res, err = runWorkload(w, o)
			}
			if err != nil {
				stderr.printf("benchmark: %s: %v\n", w.name, err)
				return 2
			}
			printResult(stdout, res)
			ok = ok && res.Correct
			wr.Runs = append(wr.Runs, res)
			last = res
		}
		wr.Summary = summarize(wr.Runs)
		if *runs > 1 {
			printSummary(stdout, w.name, wr.Runs[0].defs, wr.Summary)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			stderr.printf("benchmark: -out: %v\n", err)
			return 2
		}
	}
	if len(selected) == 1 && *runs == 1 {
		line, err := json.Marshal(resultLine{Correct: last.Correct, Attempted: max(last.Verdict.Ops, 1), Failed: last.Verdict.Failed, Metrics: last.Metrics})
		if err != nil {
			stderr.printf("benchmark: %v\n", err)
			return 2
		}
		stdout.printf("%s\n", line)
	}
	if !ok {
		stderr.printf("benchmark: self-check failed\n")
		return 1
	}
	return 0
}

func printResult(w *printer, r *result) {
	kind := "end to end"
	if r.Traced {
		kind = "traced"
	}
	w.printf("\n%s, seed %d, %s\n", r.Workload, r.Seed, kind)
	for _, d := range r.defs {
		w.printf("  %-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.Notes {
		w.printf("  %s\n", n)
	}
	if r.Correct {
		w.printf("  self-check: ok\n")
		return
	}
	w.printf("  self-check: FAILED (%d of %d operations failed)\n", r.Verdict.Failed, r.Verdict.Ops)
	for _, p := range r.Verdict.Problems {
		w.printf("    %s\n", p)
	}
}
