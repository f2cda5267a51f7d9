package phy

import (
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
