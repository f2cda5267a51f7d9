// Sensing: the paper's Sec. 6 "multi-technology wireless sensing" future
// direction as a working toy. The cloud aggregates I/Q from many
// heterogeneous low-power transmitters; the per-frame channel gains GalioT
// already estimates for interference cancellation double as a sensing
// signal — a person crossing the room perturbs the channel magnitude of
// every device, and collectively the wimpy devices reveal the event even
// though each transmits only occasionally.
//
//	go run ./examples/sensing
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/galiot"
	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/sensing"
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
	dec := galiot.NewCollisionDecoder(techs)
	tracker := sensing.NewTracker(2) // flag deviations beyond 2 dB
	gen := rng.New(99)

	// Simulate 30 sequential transmissions from a mix of devices. Between
	// transmissions 12 and 22 an "occupancy event" attenuates every link
	// by 4 dB (a body blocking the strongest path).
	const n = 30
	_, _ = fmt.Fprintln(w, "frame  tech   flagged  deviation")
	for i := 0; i < n; i++ {
		tech := techs[i%len(techs)]
		payload := []byte{byte(i), 0xCA, 0xFE}
		sig, err := tech.Modulate(payload, galiot.SampleRate)
		if err != nil {
			return err
		}
		amp := 1.0
		if i >= 12 && i < 22 {
			amp = math.Pow(10, -4.0/20)
		}
		amp *= 1 + 0.03*gen.NormFloat64() // mild fading
		rx := channel.Mix(len(sig)+20000, []channel.Emission{{
			Samples: sig, Offset: 5000,
			SNRdB: 18 + 20*math.Log10(amp),
			Phase: 2 * math.Pi * gen.Float64(),
		}}, gen.Split(uint64(i)), galiot.SampleRate)

		frames, _ := dec.Decode(rx)
		if len(frames) == 0 {
			_, _ = fmt.Fprintf(w, "%5d  %-5s  (not decoded)\n", i, tech.Name())
			continue
		}
		flagged, dev := tracker.Observe(sensing.Observation{
			Tech: tech.Name(),
			Time: float64(i),
			Gain: frames[0].Gain,
		})
		mark := ""
		if flagged {
			mark = "  <-- occupancy"
		}
		_, _ = fmt.Fprintf(w, "%5d  %-5s  %-7v  %+6.2f dB%s\n", i, tech.Name(), flagged, dev, mark)
	}

	events := tracker.Events()
	_, _ = fmt.Fprintf(w, "\n%d event(s) detected across %d technologies\n", len(events), tracker.Coverage())
	for _, ev := range events {
		_, _ = fmt.Fprintf(w, "  event frames %.0f..%.0f (%d observations, mean drop %.1f dB)\n",
			ev.Start, ev.End, ev.Count, ev.MeanDropDB)
	}
	if len(events) == 0 || tracker.Coverage() < 2 {
		return errors.New("sensing toy failed to see the event collectively")
	}
	return nil
}
