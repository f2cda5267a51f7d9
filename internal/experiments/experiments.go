// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. 7), plus the ablations called out in DESIGN.md.
// Each driver renders the same rows/series the paper reports, so the
// harness output can be placed side by side with the publication. Absolute
// numbers come from the simulated substrate (see DESIGN.md for the
// substitution table); the shape — who wins, by what factor, where the
// crossovers fall — is the reproduction target.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options controls an experiment run.
type Options struct {
	Seed  uint64 // base RNG seed; every run with the same seed is identical
	Quick bool   // reduce trial counts for smoke tests
}

// fs is the sample rate every experiment runs at: the paper's RTL-SDR
// setting.
const fs = 1e6

func (o Options) trials(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text. The table is formatted into
// memory first so the sink sees a single write and the first failure is
// returned rather than silently dropped mid-table.
func (t Table) Render(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(&buf, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&buf, "  note: %s\n", n)
	}
	fmt.Fprintln(&buf)
	_, err := w.Write(buf.Bytes())
	return err
}

// Runner is an experiment entry point.
type Runner func(Options) (Table, error)

var registry = map[string]Runner{
	"table1":              Table1Runner,
	"fig3b":               Fig3b,
	"fig3c":               Fig3c,
	"headline-detect":     HeadlineDetect,
	"headline-throughput": HeadlineThroughput,
	"scaling":             Scaling,
	"cost":                Cost,
	"backhaul":            Backhaul,
	"battery":             Battery,
	"ablation-frontend":   AblationFrontend,
	"ablation-preamble":   AblationPreamble,
	"ablation-kill":       AblationKill,
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	//lint:ignore nondeterminism keys are sorted before returning
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id and renders it to w.
func Run(id string, opt Options, w io.Writer) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	table, err := r(opt)
	if err != nil {
		return err
	}
	return table.Render(w)
}

// RunAll executes every experiment in id order.
func RunAll(opt Options, w io.Writer) error {
	for _, id := range IDs() {
		if err := Run(id, opt, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
