// Quickstart: modulate a LoRa frame, pass it through an AWGN channel and
// the RTL-SDR front-end model, and decode it back — the smallest possible
// GalioT round trip.
//
//	go run ./examples/quickstart
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
	lora := techs[0]

	payload := []byte("hello, GalioT!")
	sig, err := lora.Modulate(payload, galiot.SampleRate)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(w, "modulated %d payload bytes into %d I/Q samples (%.1f ms airtime)\n",
		len(payload), len(sig), 1000*float64(len(sig))/galiot.SampleRate)

	// Put the burst on the air at 0 dB SNR — at or below the noise floor,
	// where LoRa's chirp processing gain still decodes cleanly.
	gen := rng.New(42)
	antenna := channel.Mix(len(sig)+20000, []channel.Emission{
		{Samples: sig, Offset: 8000, SNRdB: 0},
	}, gen, galiot.SampleRate)

	// Receive through the impaired RTL-SDR model (8-bit ADC, DC offset, IQ
	// imbalance, 500 Hz tuner error).
	rx := galiot.DefaultFrontend().Capture(antenna)

	frame, err := lora.Demodulate(rx, galiot.SampleRate)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(w, "decoded tech=%s crc=%v offset=%d payload=%q\n",
		frame.Tech, frame.CRCOK, frame.Offset, frame.Payload)
	if !frame.CRCOK || string(frame.Payload) != string(payload) {
		return errors.New("round trip failed")
	}
	_, _ = fmt.Fprintln(w, "round trip OK at 0 dB SNR through the 8-bit front-end")
	return nil
}
