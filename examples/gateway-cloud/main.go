// Gateway-cloud: the full GalioT pipeline in one process. A simulated
// antenna feeds duty-cycled traffic of all three technologies into the
// gateway, which detects packets with the universal preamble and ships
// segments over an in-process TCP connection to the cloud decoder; decoded
// frames stream back to the gateway.
//
// Gateway and cloud share one metrics registry and one tracer, so a single
// snapshot covers the whole pipeline and /trace/slowest shows each
// segment's detect → ship → decode journey end to end.
//
//	go run ./examples/gateway-cloud
//	go run ./examples/gateway-cloud -obs-addr 127.0.0.1:8077
//
// With -obs-addr the process keeps serving the introspection endpoints
// after the pipeline finishes until interrupted, so the metrics can be
// curled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/galiot"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /trace/tree, /trace/slowest and pprof on this address (empty = off)")
	flag.Parse()

	techs := galiot.Technologies()

	// One registry + tracer for both halves of the pipeline; the trace
	// store stitches the gateway-side and cloud-side spans of each segment
	// into one tree behind /trace/tree and /trace/slowest.
	reg := galiot.NewObsRegistry()
	tracer := galiot.NewObsTracer()
	tracer.SetClock(func() int64 { return time.Now().UnixNano() })
	tracer.SetSite("example")
	traces := galiot.NewObsTraceStore(reg)
	tracer.SetSink(traces.Ingest)
	if *obsAddr != "" {
		obsSrv := &galiot.ObsServer{Registry: reg, Traces: traces}
		if err := obsSrv.Start(*obsAddr); err != nil {
			log.Fatal(err)
		}
		defer obsSrv.Close()
		fmt.Printf("observability endpoints on http://%s/metrics\n", obsSrv.Addr())
	}

	// Cloud side: TCP server on a loopback port, decoding through the farm
	// so each cloud span carries a farm_queue stage.
	svc := galiot.NewCloud(techs...)
	svc.UseObs(reg, tracer)
	svc.StartFarm(galiot.FarmConfig{Workers: 2})
	defer svc.Close()
	srv := svc.NewServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("cloud listening on %s\n", srv.Addr())

	// Gateway side.
	gw, err := galiot.NewGateway(galiot.GatewayConfig{
		ID:         "example-gw",
		Techs:      techs,
		Frontend:   galiot.IdealFrontend(),
		EdgeDecode: true,
		Obs:        reg,
		Tracer:     tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Simulated antenna: half a second of duty-cycled traffic with
	// collisions.
	gen := rng.New(2026)
	captures := make(chan []complex128, 2)
	onAir := 0
	go func() {
		defer close(captures)
		for i := 0; i < 2; i++ {
			scen, err := sim.GenTraffic(sim.TrafficConfig{
				Techs:      techs,
				SampleRate: galiot.SampleRate,
				Duration:   1 << 18,
				MeanGap:    0.04,
				SNRMin:     8,
				SNRMax:     16,
			}, gen.Split(uint64(i)))
			if err != nil {
				log.Fatal(err)
			}
			onAir += len(scen.Packets)
			captures <- scen.Capture
		}
	}()

	// The resilient client dials the cloud itself and redials (replaying
	// the unacked window) if the backhaul drops; the reports callback runs
	// concurrently with the pipeline, so guard the counter.
	var mu sync.Mutex
	decoded := 0
	if err := gw.RunResilient(galiot.GatewayResilient{
		Dial: func() (io.ReadWriteCloser, error) {
			return net.Dial("tcp", srv.Addr().String())
		},
		Epoch: uint64(time.Now().UnixNano()),
	}, captures, func(r galiot.FramesReport) {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range r.Frames {
			decoded++
			fmt.Printf("cloud -> %-5s @%-8d crc=%v payload=%x\n", f.Tech, f.Offset, f.CRCOK, f.Payload)
		}
	}); err != nil {
		log.Fatal(err)
	}

	st := gw.Stats()
	mu.Lock()
	got := decoded
	mu.Unlock()
	fmt.Printf("\n%d packets on air | %d detections | %d segments shipped | %d edge frames | %d cloud frames\n",
		onAir, st.Detections, st.SegmentsShipped, st.EdgeFrames, got)
	fmt.Printf("backhaul: %d wire bytes vs %d raw (%.1f%% of streaming everything)\n",
		st.WireBytes, st.RawBytes, 100*float64(st.WireBytes)/float64(st.RawBytes))
	if got+st.EdgeFrames == 0 {
		log.Fatal("pipeline decoded nothing")
	}

	if data, err := json.Marshal(reg.Snapshot()); err == nil {
		fmt.Printf("metrics: %s\n", data)
	}

	if *obsAddr != "" {
		fmt.Println("pipeline done; serving observability endpoints until interrupted")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}
