// Command galiot-replay runs the full GalioT pipeline over a cu8 capture
// file (rtl_sdr-compatible, e.g. produced by galiot-record or by real
// hardware tuned to a 1 MHz slice of the 868 MHz band): universal-preamble
// detection, segment extraction and Algorithm-1 collision decoding, all in
// process, printing every recovered frame.
//
//	galiot-replay -in capture.cu8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/galiot"
	"repro/internal/dsp"
	"repro/internal/iq"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its exit code returned; errors go to stderr. A failed
// write to stdout is dropped, as fmt.Printf drops it.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("galiot-replay", flag.ContinueOnError)
	var (
		in   = fl.String("in", "capture.cu8", "input cu8 file")
		rate = fl.Float64("rate", galiot.SampleRate, "capture sample rate in Hz")
		edge = fl.Bool("edge", true, "resolve uncollided packets at the edge")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-replay:", err)
		return 1
	}
	defer f.Close()
	if err := replay(f, *rate, *edge, 1<<18, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-replay:", err)
		return 1
	}
	return 0
}

// replay runs the pipeline over the cu8 stream src captured at rate,
// handing a native-rate capture to the gateway chunk samples per Process
// call, and prints every recovered frame and a summary to stdout.
func replay(src io.Reader, rate float64, edge bool, chunk int, stdout io.Writer) error {
	techs := galiot.Technologies()
	gw, err := galiot.NewGateway(galiot.GatewayConfig{
		ID:         "replay",
		Techs:      techs,
		EdgeDecode: edge,
	})
	if err != nil {
		return err
	}
	svc := galiot.NewCloud(techs...)

	printFrame := func(where string, tech string, offset int64, crc bool, payload []byte) {
		_, _ = fmt.Fprintf(stdout, "%-5s %-6s @%-9d crc=%-5v payload=%x\n", where, tech, offset, crc, payload)
	}
	decoded := 0
	handle := func(res galiot.GatewayResult) {
		for _, fr := range res.EdgeFrames {
			decoded++
			printFrame("edge", fr.Tech, int64(fr.Offset), fr.CRCOK, fr.Payload)
		}
		for _, seg := range res.Shipped {
			report := svc.DecodeSegment(seg)
			for _, fr := range report.Frames {
				decoded++
				printFrame("cloud", fr.Tech, fr.Offset, fr.CRCOK, fr.Payload)
			}
		}
	}

	// A non-native capture rate (e.g. rtl_sdr's customary 2.048 MHz) is
	// read whole and resampled into the 1 MHz pipeline; a native one
	// streams through the gateway block by block.
	native := dsp.ApproxEqual(rate, galiot.SampleRate, 1e-6)
	reader := iq.NewReader(src)
	var all []complex128
	buf := make([]complex128, chunk)
	for {
		n, err := reader.Read(buf)
		if n > 0 && native {
			handle(gw.Process(buf[:n]))
		} else if n > 0 {
			all = append(all, buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if !native {
		converted, err := dsp.Resample(all, rate, galiot.SampleRate)
		if err != nil {
			return fmt.Errorf("resample: %w", err)
		}
		handle(gw.Process(converted))
	}
	handle(gw.Flush())

	st := gw.Stats()
	_, _ = fmt.Fprintf(stdout, "\nreplayed %.2f s (capture rate %.0f Hz): %d segments, %d frames recovered\n",
		float64(st.RawBytes/2)/galiot.SampleRate, rate, st.SegmentsShipped+st.SegmentsResolved, decoded)
	return nil
}
