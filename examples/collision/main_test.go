package main

import (
	"strings"
	"testing"
)

// TestKillFiltersBeatSIC checks the claim the example prints: strict SIC
// recovers one frame of the 3-way collision, GalioT all three.
func TestKillFiltersBeatSIC(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of decode under -race; the non-race test step runs it")
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "\nSIC: 1/3, GalioT: 3/3\n") {
		t.Fatalf("output lacks %q:\n%s", "SIC: 1/3, GalioT: 3/3", out.String())
	}
}
