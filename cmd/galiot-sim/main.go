// Command galiot-sim runs the paper-reproduction experiments: every table
// and figure of the evaluation (Sec. 7) plus the DESIGN.md ablations, over
// the simulated RTL-SDR substrate.
//
// Usage:
//
//	galiot-sim -exp fig3b            # one experiment
//	galiot-sim -exp all -quick       # everything, reduced trial counts
//	galiot-sim -list                 # show available experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its exit code returned; errors go to stderr. A failed
// write to stdout is dropped, as fmt.Printf drops it.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("galiot-sim", flag.ContinueOnError)
	var (
		exp   = fl.String("exp", "all", "experiment id to run, or 'all'")
		seed  = fl.Uint64("seed", 1, "base RNG seed (runs are deterministic per seed)")
		quick = fl.Bool("quick", false, "reduced trial counts for a fast smoke run")
		list  = fl.Bool("list", false, "list experiment ids and exit")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	if *list {
		_, _ = fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	opt := experiments.Options{Seed: *seed, Quick: *quick}
	var err error
	if *exp == "all" {
		err = experiments.RunAll(opt, stdout)
	} else {
		err = experiments.Run(*exp, opt, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-sim:", err)
		return 1
	}
	return 0
}
