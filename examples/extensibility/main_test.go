package main

import (
	"strings"
	"testing"
)

// TestFiveTechnologiesDecode checks the claim the example prints: after
// the software update all five technologies decode from one capture, each
// with its own payload.
func TestFiveTechnologiesDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of decode under -race; the non-race test step runs it")
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"decoded 5 of 5 technologies from one capture:",
		`  lora   crc=true payload="lora frame"`,
		`  xbee   crc=true payload="xbee frame"`,
		`  zwave  crc=true payload="zwave frame"`,
		`  oqpsk  crc=true payload="oqpsk frame"`,
		`  dbpsk  crc=true payload="\xd0\r"`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if strings.Contains(out.String(), "(missing:") {
		t.Errorf("a technology went undecoded")
	}
	if t.Failed() {
		t.Log(out.String())
	}
}
