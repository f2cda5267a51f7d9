// Collision: the paper's headline scenario. LoRa, XBee and Z-Wave frames
// collide in time inside one 1 MHz capture; the strict SIC baseline stalls
// while GalioT's kill-filter decoder (Algorithm 1) separates all three.
//
//	go run ./examples/collision
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/galiot"
	"repro/internal/channel"
	"repro/internal/rng"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the demo to w, dropping a failed write as fmt.Printf does:
// the text is for a terminal.
func run(w io.Writer) error {
	techs := galiot.Technologies()
	payloads := map[string][]byte{
		"lora":  []byte("soil moisture 41%"),
		"xbee":  []byte("door sensor: open"),
		"zwave": []byte("dimmer to 70"),
	}

	// Render the three frames and overlap them in time at comparable
	// received powers — the regime where plain SIC cannot pick a winner.
	gen := rng.New(7)
	var emissions []channel.Emission
	longest := 0
	for i, tech := range techs {
		sig, err := tech.Modulate(payloads[tech.Name()], galiot.SampleRate)
		if err != nil {
			return err
		}
		emissions = append(emissions, channel.Emission{
			Samples: sig,
			Offset:  6000 + i*3000,   // staggered starts, fully overlapping
			SNRdB:   11 + float64(i), // comparable powers within 2 dB
		})
		if len(sig) > longest {
			longest = len(sig)
		}
	}
	capture := channel.Mix(longest+30000, emissions, gen, galiot.SampleRate)
	_, _ = fmt.Fprintf(w, "capture: %d samples with a 3-way cross-technology collision\n\n", len(capture))

	run := func(name string, dec *galiot.CollisionDecoder) int {
		frames, stats := dec.Decode(capture)
		_, _ = fmt.Fprintf(w, "%s recovered %d frame(s):\n", name, len(frames))
		for _, f := range frames {
			_, _ = fmt.Fprintf(w, "  %-5s crc=%v payload=%q\n", f.Tech, f.CRCOK, f.Payload)
		}
		_, _ = fmt.Fprintf(w, "  decoder stats: %+v\n\n", stats)
		return len(frames)
	}

	nSIC := run("strict SIC baseline", galiot.NewSICBaseline(techs))
	nCloud := run("GalioT (SIC + kill filters)", galiot.NewCollisionDecoder(techs))

	_, _ = fmt.Fprintf(w, "SIC: %d/3, GalioT: %d/3\n", nSIC, nCloud)
	if nCloud < 3 {
		return errors.New("expected GalioT to recover all three frames")
	}
	return nil
}
