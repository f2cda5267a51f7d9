package phy

import (
	"math"
	"strings"
	"testing"
)

func TestCatalogIncludesTable1Extras(t *testing.T) {
	names := map[string]bool{}
	for _, info := range Extras() {
		names[info.Name] = true
	}
	for _, want := range []string{"ble", "wifi-halow", "sigfox", "thread", "wirelesshart", "weightless", "nb-iot"} {
		if !names[want] {
			t.Fatalf("catalog missing %s", want)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{ClassFSK: "FSK", ClassPSK: "PSK", ClassCSS: "CSS", ClassDSSS: "DSSS"}
	for c, want := range cases {
		if c.String() != want {
			t.Fatalf("%v", c)
		}
	}
	if !strings.HasPrefix(Class(9).String(), "class(") {
		t.Fatal("unknown class string")
	}
}

func TestFrameFitClipsToWindow(t *testing.T) {
	// The window ends five samples into an eight-sample reconstruction:
	// Fit must use rx[Offset:] against ref's head, and ignore the junk
	// before Offset.
	ref := []complex128{1, 1i, -1, -1i, 2, 2i, -2, -2i}
	gain := complex(0.5, -1.5)
	rx := []complex128{9, -9i, 9}
	for _, v := range ref[:5] {
		rx = append(rx, gain*v)
	}
	f := &Frame{Offset: 3}
	f.Fit(rx, ref)
	if f.Gain != gain || !math.IsInf(f.SNRdB, 1) {
		t.Fatalf("clipped perfect fit: gain %v SNR %v dB, want %v +Inf", f.Gain, f.SNRdB, gain)
	}
}
