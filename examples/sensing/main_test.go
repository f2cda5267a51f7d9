package main

import (
	"strings"
	"testing"
)

// TestOneOccupancyEvent checks the claim the example prints: the 4 dB
// attenuation across frames 12..21 is seen as exactly one event.
func TestOneOccupancyEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of decode under -race; the non-race test step runs it")
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"\n1 event(s) detected across 3 technologies\n",
		"  event frames 12..21 ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}
