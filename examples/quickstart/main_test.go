package main

import (
	"strings"
	"testing"
)

// TestRoundTrip checks the claim the example prints: the LoRa payload
// survives the 0 dB channel and the 8-bit front-end.
func TestRoundTrip(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		`decoded tech=lora crc=true offset=8000 payload="hello, GalioT!"`,
		"round trip OK at 0 dB SNR",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}
