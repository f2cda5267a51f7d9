// Command galiot-record synthesizes a duty-cycled multi-technology capture
// and writes it as a cu8 file — the RTL-SDR's native unsigned 8-bit
// interleaved I/Q format, byte-compatible with rtl_sdr(1) output — along
// with a ground-truth sidecar listing every transmitted frame. Use
// galiot-replay to run the GalioT pipeline over the file.
//
//	galiot-record -out capture.cu8 -seconds 2 -seed 7
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/galiot"
	"repro/internal/dsp"
	"repro/internal/iq"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its exit code returned; errors go to stderr. A failed
// write of the summary to stdout is dropped, as fmt.Printf drops it.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("galiot-record", flag.ContinueOnError)
	var (
		out     = fl.String("out", "capture.cu8", "output cu8 file")
		truth   = fl.String("truth", "", "ground-truth sidecar (default <out>.truth)")
		seconds = fl.Float64("seconds", 1, "capture length in seconds")
		seed    = fl.Uint64("seed", 1, "traffic RNG seed")
		snrMin  = fl.Float64("snr-min", 5, "minimum per-packet SNR (dB)")
		snrMax  = fl.Float64("snr-max", 15, "maximum per-packet SNR (dB)")
		meanGap = fl.Float64("gap", 0.08, "mean idle gap per transmitter (s)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *truth == "" {
		*truth = *out + ".truth"
	}

	techs := galiot.Technologies()
	scen, err := sim.GenTraffic(sim.TrafficConfig{
		Techs:      techs,
		SampleRate: galiot.SampleRate,
		Duration:   int(*seconds * galiot.SampleRate),
		MeanGap:    *meanGap,
		SNRMin:     *snrMin,
		SNRMax:     *snrMax,
	}, rng.New(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-record:", err)
		return 1
	}

	// Scale into the cu8 range like an AGC'd front-end: peak at 0.95.
	samples := dsp.Clone(scen.Capture)
	_, peak := dsp.MaxAbs(samples)
	if peak > 0 {
		dsp.Scale(samples, 0.95/peak)
	}
	if err := os.WriteFile(*out, iq.Encode(samples), 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-record:", err)
		return 1
	}

	// A short write here silently corrupts the ground truth every
	// detection-rate comparison is scored against, so fail loudly.
	var truthBuf bytes.Buffer
	fmt.Fprintf(&truthBuf, "# tech offset length snr_db payload_hex\n")
	for _, p := range scen.Packets {
		fmt.Fprintf(&truthBuf, "%s %d %d %.1f %x\n", p.Tech, p.Offset, p.Length, p.SNRdB, p.Payload)
	}
	if err := os.WriteFile(*truth, truthBuf.Bytes(), 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-record:", err)
		return 1
	}

	_, _ = fmt.Fprintf(stdout, "wrote %s: %d samples (%.2f s at %.0f Hz), %d packets (truth in %s)\n",
		*out, len(samples), float64(len(samples))/galiot.SampleRate, galiot.SampleRate,
		len(scen.Packets), *truth)
	return 0
}
