package galiot

import (
	"reflect"
	"testing"

	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/rng"
)

func TestTechnologies(t *testing.T) {
	ts := Technologies()
	if len(ts) != 3 {
		t.Fatalf("%d technologies", len(ts))
	}
	names := map[string]bool{}
	for _, tech := range ts {
		names[tech.Name()] = true
	}
	for _, want := range []string{"lora", "xbee", "zwave"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
	if len(TechnologiesWithDSSS()) != 4 {
		t.Fatal("DSSS set")
	}
	all := TechnologiesAll()
	if len(all) != 5 {
		t.Fatalf("full set has %d technologies, want 5", len(all))
	}
	classes := map[string]bool{}
	for _, tech := range all {
		classes[tech.Class().String()] = true
	}
	for _, want := range []string{"CSS", "FSK", "DSSS", "PSK"} {
		if !classes[want] {
			t.Fatalf("class %s not covered by TechnologiesAll", want)
		}
	}
	if len(classes) != 4 {
		t.Fatalf("TechnologiesAll covers classes %v, want exactly CSS, FSK, DSSS, PSK", classes)
	}
}

func TestNewGatewayDefaults(t *testing.T) {
	g, err := NewGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.SampleRate() != SampleRate {
		t.Fatal("sample rate")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	techs := Technologies()
	dec := NewCollisionDecoder(techs)
	gen := rng.New(77)
	payload := []byte("facade")
	sig, err := techs[1].Modulate(payload, SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	rx := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, SampleRate)
	frames, _ := dec.Decode(rx)
	if len(frames) != 1 || string(frames[0].Payload) != "facade" {
		t.Fatalf("frames %+v", frames)
	}
}

func TestDetectorConstructors(t *testing.T) {
	if _, err := NewUniversalDetector(Technologies(), 0.08); err != nil {
		t.Fatal(err)
	}
	techs := Technologies()
	if !reflect.DeepEqual(NewSICBaseline(techs), cancel.NewSIC(techs, SampleRate)) {
		t.Fatal("SIC baseline is not cancel.NewSIC")
	}
	if !reflect.DeepEqual(NewCollisionDecoder(techs), cancel.NewDecoder(techs, SampleRate)) {
		t.Fatal("collision decoder is not cancel.NewDecoder")
	}
	if reflect.DeepEqual(NewSICBaseline(techs), NewCollisionDecoder(techs)) {
		t.Fatal("SIC baseline must not use kill filters")
	}
	if DefaultFrontend().SampleRate() != SampleRate || IdealFrontend().SampleRate() != SampleRate {
		t.Fatal("frontends")
	}
}
