// Command galiot-cloud runs the GalioT cloud decoder as a TCP service:
// gateways connect over the backhaul protocol, ship detected I/Q segments,
// and receive decoded frames back. Decoding uses Algorithm 1 of the paper
// (successive interference cancellation wrapped around the modulation-class
// kill filters) over the prototype technology set.
//
// Usage:
//
//	galiot-cloud -listen :7373
//
// The process always runs the sharded decode plane: -shards shared-nothing
// decode shards (default 1) behind one accept loop, each with its own
// decode farm and replay cache, sessions routed by a consistent hash of
// (gateway, epoch). The -obs-addr endpoint serves the plane registry at
// /metrics: the shards' cloud_* series summed, the front's
// cloud_fleet_* and cloud_shard<i>_* series, and each shard farm's series
// as cloud_shard<i>_farm_*. SIGINT drains the plane and logs the same
// snapshot as one `metrics: {...}` line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/galiot"
)

func main() {
	var (
		listen         = flag.String("listen", ":7373", "TCP address to accept gateway sessions on")
		dsss           = flag.Bool("dsss", false, "also decode the O-QPSK DSSS technology")
		quiet          = flag.Bool("quiet", false, "suppress per-segment logs")
		workers        = flag.Int("workers", 4, "decode-farm worker count per shard (at least 1)")
		queue          = flag.Int("queue", 64, "decode-farm admission queue depth per shard; beyond it gateways get busy rejects")
		shards         = flag.Int("shards", 1, "decode-plane shard count (sessions routed by consistent hash of gateway and epoch)")
		sessionTimeout = flag.Duration("session-timeout", 0, "reap sessions idle for this long (0 = never)")
		obsAddr        = flag.String("obs-addr", "", "serve /metrics, /trace/tree, /trace/slowest, /events/recent, /healthz, /readyz and pprof on this address (empty = off)")
	)
	flag.Parse()
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "galiot-cloud: -workers must be at least 1")
		os.Exit(2)
	}

	techs := galiot.Technologies()
	if *dsss {
		techs = galiot.TechnologiesWithDSSS()
	}
	clock := func() int64 { return time.Now().UnixNano() }
	reg := galiot.NewObsRegistry()
	tracer := galiot.NewObsTracer()
	tracer.SetClock(clock)
	tracer.SetSite("cloud")
	journal := galiot.NewObsJournal(0)
	journal.SetClock(clock)
	health := galiot.NewObsHealth()
	// The trace store assembles this process's spans — stitched onto the
	// wire-propagated trace IDs gateways send — behind /trace/tree and
	// /trace/slowest. Ordinary traces are evicted first, so replayed,
	// rejected and dropped ones outlive them.
	traces := galiot.NewObsTraceStore(reg)
	tracer.SetSink(traces.Ingest)

	cfg := galiot.FleetConfig{
		Shards:     *shards,
		Workers:    *workers,
		QueueDepth: *queue,
		Techs:      techs,
		Obs:        reg,
		Tracer:     tracer,
		Journal:    journal,
		Health:     health,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	front, err := galiot.NewFleet(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud:", err)
		os.Exit(1)
	}
	if *obsAddr != "" {
		obsSrv := &galiot.ObsServer{Registry: reg, Journal: journal, Health: health, Traces: traces}
		if err := obsSrv.Start(*obsAddr); err != nil {
			fmt.Fprintln(os.Stderr, "galiot-cloud: obs server:", err)
			os.Exit(1)
		}
		defer func() {
			if err := obsSrv.Close(); err != nil {
				log.Printf("obs server close: %v", err)
			}
		}()
		log.Printf("observability endpoints on http://%s/metrics", obsSrv.Addr())
	}

	srv := front.NewServer()
	srv.SessionTimeout = *sessionTimeout
	srv.Journal = journal
	if err := srv.Listen(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud:", err)
		os.Exit(1)
	}
	log.Printf("galiot-cloud listening on %s (%d shards x %d workers, capacity hint %d, %d technologies)",
		srv.Addr(), front.Shards(), *workers, front.Capacity(), len(techs))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	front.Close() // drain every shard farm after the sessions are done
	for _, st := range front.Stats() {
		log.Printf("shard %d: %d sessions routed, farm %d admitted, %d completed, %d rejected, %d deadline-exceeded",
			st.Shard, st.Sessions, st.Farm.Admitted, st.Farm.Completed, st.Farm.Rejected, st.Farm.DeadlineExceeded)
	}
	if data, err := json.Marshal(reg.Snapshot()); err == nil {
		log.Printf("metrics: %s", data)
	}
}
