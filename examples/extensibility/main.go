// Extensibility: the paper's core pitch — a software radio gateway gains a
// new technology "through a simple software update", not a new radio chip.
// This example starts a gateway+cloud on the three prototype technologies,
// then "updates" both with two more (802.15.4-style O-QPSK DSSS and
// SigFox-class D-BPSK) by rebuilding the universal preamble and the
// decoder over the larger set — no other change — and decodes a
// five-technology airspace, including a LoRa×O-QPSK collision.
//
//	go run ./examples/extensibility
package main

import (
	"fmt"
	"log"

	"repro/galiot"
	"repro/internal/channel"
	"repro/internal/detect"
	"repro/internal/rng"
)

func main() {
	before := galiot.Technologies()   // lora, xbee, zwave
	after := galiot.TechnologiesAll() // + oqpsk, dbpsk

	// The "software update": the universal preamble is rebuilt from the new
	// technology list. Its length is still that of the longest preamble —
	// detection cost does not grow with the technology count.
	uniBefore, err := detect.BuildUniversal(before, galiot.SampleRate)
	if err != nil {
		log.Fatal(err)
	}
	uniAfter, err := detect.BuildUniversal(after, galiot.SampleRate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("universal preamble: %d techs -> template %d samples (%d groups)\n",
		len(before), len(uniBefore.Template), len(uniBefore.Groups))
	fmt.Printf("after update:       %d techs -> template %d samples (%d groups)\n\n",
		len(after), len(uniAfter.Template), len(uniAfter.Groups))

	// Put all five technologies on the air, staggered so each overlaps its
	// neighbours in time; LoRa and O-QPSK both spread across the band, so
	// they also overlap in frequency.
	gen := rng.New(11)
	payloads := map[string][]byte{
		"lora":  []byte("lora frame"),
		"xbee":  []byte("xbee frame"),
		"zwave": []byte("zwave frame"),
		"oqpsk": []byte("oqpsk frame"),
		"dbpsk": []byte{0xD0, 0x0D},
	}
	var emissions []channel.Emission
	longest := 0
	for i, tech := range after {
		sig, err := tech.Modulate(payloads[tech.Name()], galiot.SampleRate)
		if err != nil {
			log.Fatal(err)
		}
		emissions = append(emissions, channel.Emission{
			Samples: sig,
			Offset:  5000 + i*2500,
			SNRdB:   14,
		})
		if end := 5000 + i*2500 + len(sig); end > longest {
			longest = end
		}
	}
	capture := channel.Mix(longest+20000, emissions, gen, galiot.SampleRate)

	// Decode with the updated technology set.
	dec := galiot.NewCollisionDecoder(after)
	frames, stats := dec.Decode(capture)
	fmt.Printf("decoded %d of %d technologies from one capture:\n", len(frames), len(after))
	got := map[string]bool{}
	for _, f := range frames {
		fmt.Printf("  %-6s crc=%v payload=%q\n", f.Tech, f.CRCOK, f.Payload)
		got[f.Tech] = true
	}
	fmt.Printf("decoder stats: %+v\n", stats)

	missing := 0
	for _, tech := range after {
		if !got[tech.Name()] {
			fmt.Printf("  (missing: %s)\n", tech.Name())
			missing++
		}
	}
	if missing > 1 {
		log.Fatalf("software update failed: %d technologies undecoded", missing)
	}
	fmt.Println("\nsoftware update complete: new technologies decoded with zero new hardware")
}
