package phy

import (
	"strings"
	"testing"
)

// fakeTech is a minimal Technology for registry tests.
type fakeTech struct{ name string }

func (f fakeTech) Name() string                  { return f.name }
func (f fakeTech) Class() Class                  { return ClassFSK }
func (f fakeTech) Info() Info                    { return Info{Name: f.name, Modulation: "GFSK"} }
func (f fakeTech) BitRate() float64              { return 1000 }
func (f fakeTech) Preamble(float64) []complex128 { return make([]complex128, 8) }
func (f fakeTech) MaxPacketSamples(float64) int  { return 64 }
func (f fakeTech) Modulate([]byte, float64) ([]complex128, error) {
	return make([]complex128, 64), nil
}
func (f fakeTech) Demodulate([]complex128, float64) (*Frame, error) { return nil, ErrNoFrame }

func TestRegisterLookupAll(t *testing.T) {
	Register(fakeTech{name: "ztest-b"})
	Register(fakeTech{name: "ztest-a"})
	if _, ok := Lookup("ztest-a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := Lookup("missing"); ok {
		t.Fatal("phantom lookup")
	}
	all := All()
	// sorted by name
	for i := 1; i < len(all); i++ {
		if all[i-1].Name() >= all[i].Name() {
			t.Fatal("All() not sorted")
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register(fakeTech{name: "ztest-dup"})
	Register(fakeTech{name: "ztest-dup"})
}

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
