package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestListPrintsEveryID(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if got, want := out.String(), strings.Join(experiments.IDs(), "\n")+"\n"; got != want {
		t.Fatalf("-list printed %q, want %q", got, want)
	}
}

func TestCostExperiment(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-exp", "cost"}, &out); code != 0 {
		t.Fatalf("-exp cost exit %d", code)
	}
	// The paper's bill of materials: a $25 dongle plus a $35 Pi.
	if !regexp.MustCompile(`(?m)^== cost: [^\n]*\n(?s:.*)^\s+GalioT prototype total\s+60\s*$`).MatchString(out.String()) {
		t.Fatalf("-exp cost does not total the prototype at 60 USD:\n%s", out.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-exp", "no-such-experiment"}, &out); code != 1 {
		t.Fatalf("unknown id exit %d, want 1", code)
	}
}
