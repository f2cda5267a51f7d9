// Command galiot-gateway runs a GalioT gateway against a simulated antenna:
// duty-cycled transmitters of the prototype technologies (with collisions)
// feed the RTL-SDR front-end model; the gateway detects packets with the
// universal preamble, optionally resolves uncollided ones at the edge, and
// ships the rest to a galiot-cloud instance over TCP.
//
// The backhaul is resilient: a dropped connection is redialed with
// exponential backoff (-retry bounds the consecutive attempts) and the
// unacknowledged window is replayed, while detected segments keep flowing
// into a bounded spool (-spool). When the spool overflows during an outage
// the oldest segments fall back to a local edge-only decode. With -wal-dir
// the spool is also crash-durable: every admitted segment is journaled to a
// write-ahead log and segments unacknowledged at the time of a kill are
// replayed to the cloud on the next start (-wal-sync trades fsync cost
// against the power-loss window).
//
// Usage (with galiot-cloud running):
//
//	galiot-gateway -cloud 127.0.0.1:7373 -seconds 5 -snr-min 5 -snr-max 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/galiot"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() { os.Exit(run()) }

// run is main's body, separated so the final metrics line and the stats
// summary are emitted on every exit path — a gateway that gives up after
// exhausting its retries still reports what it did first.
func run() int {
	var (
		cloudAddr = flag.String("cloud", "127.0.0.1:7373", "address of the galiot-cloud service")
		seconds   = flag.Float64("seconds", 2, "simulated airtime to generate")
		seed      = flag.Uint64("seed", 1, "traffic RNG seed")
		snrMin    = flag.Float64("snr-min", 5, "minimum per-packet SNR (dB)")
		snrMax    = flag.Float64("snr-max", 15, "maximum per-packet SNR (dB)")
		meanGap   = flag.Float64("gap", 0.05, "mean idle gap per transmitter (s); smaller = more collisions")
		edge      = flag.Bool("edge", true, "resolve uncollided packets at the edge")
		impaired  = flag.Bool("impaired", true, "use the RTL-SDR impairment model (vs ideal front-end)")
		window    = flag.Int("window", 0, "max unacknowledged segments in flight per session (0 = default)")
		retry     = flag.Int("retry", 0, "max consecutive reconnect attempts before giving up (0 = default)")
		spool     = flag.Int("spool", 0, "segment spool capacity between detection and backhaul (0 = default)")
		obsAddr   = flag.String("obs-addr", "", "serve /metrics, /trace/tree, /trace/slowest, /events/recent, /healthz, /readyz and pprof on this address (empty = off)")
		walDir    = flag.String("wal-dir", "", "journal admitted segments to a write-ahead log in this directory and replay unacked ones on restart (empty = off)")
		walSync   = flag.String("wal-sync", "batched", "WAL fsync policy: record (every append), batched (every few appends), off (close only)")
	)
	flag.Parse()

	var walPolicy galiot.WALSyncPolicy
	switch *walSync {
	case "batched":
		walPolicy = galiot.WALSyncBatched
	case "record":
		walPolicy = galiot.WALSyncRecord
	case "off":
		walPolicy = galiot.WALSyncOff
	default:
		fmt.Fprintf(os.Stderr, "galiot-gateway: -wal-sync %q: want record, batched or off\n", *walSync)
		return 2
	}

	reg := galiot.NewObsRegistry()
	tracer := galiot.NewObsTracer()
	tracer.SetClock(func() int64 { return time.Now().UnixNano() })
	tracer.SetSite(fmt.Sprintf("gw-%d", *seed))
	journal := galiot.NewObsJournal(0)
	journal.SetClock(func() int64 { return time.Now().UnixNano() })
	health := galiot.NewObsHealth()
	// Gateway-side halves of the distributed traces: spans land here with
	// the same trace IDs the segments carry onto the wire, so this
	// process's /trace/tree and the cloud's show the two sides of one ID.
	traces := galiot.NewObsTraceStore(reg)
	tracer.SetSink(traces.Ingest)
	if *obsAddr != "" {
		obsSrv := &galiot.ObsServer{Registry: reg, Journal: journal, Health: health, Traces: traces}
		if err := obsSrv.Start(*obsAddr); err != nil {
			fmt.Fprintln(os.Stderr, "galiot-gateway: obs server:", err)
			return 1
		}
		defer func() {
			if err := obsSrv.Close(); err != nil {
				log.Printf("obs server close: %v", err)
			}
		}()
		log.Printf("observability endpoints on http://%s/metrics", obsSrv.Addr())
	}

	techs := galiot.Technologies()
	fe := galiot.IdealFrontend()
	if *impaired {
		fe = galiot.DefaultFrontend()
	}
	gw, err := galiot.NewGateway(galiot.GatewayConfig{
		ID:         fmt.Sprintf("gw-%d", *seed),
		Techs:      techs,
		Frontend:   fe,
		EdgeDecode: *edge,
		Window:     *window,
		Obs:        reg,
		Tracer:     tracer,
		Journal:    journal,
		Health:     health,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-gateway:", err)
		return 1
	}

	// Produce captures of ~0.25 s each until the requested airtime is done.
	const captureLen = 1 << 18
	totalSamples := int(*seconds * galiot.SampleRate)
	captures := make(chan []complex128)
	gen := rng.New(*seed)
	groundTruth := 0
	go func() {
		defer close(captures)
		for produced := 0; produced < totalSamples; produced += captureLen {
			scen, err := sim.GenTraffic(sim.TrafficConfig{
				Techs:      techs,
				SampleRate: galiot.SampleRate,
				Duration:   captureLen,
				MeanGap:    *meanGap,
				SNRMin:     *snrMin,
				SNRMax:     *snrMax,
			}, gen.Split(uint64(produced)))
			if err != nil {
				log.Printf("traffic: %v", err)
				return
			}
			groundTruth += len(scen.Packets)
			captures <- scen.Capture
		}
	}()

	// Reports arrive concurrently: cloud replies from the backhaul session
	// and degraded-mode edge decodes from the spool's drop path.
	var mu sync.Mutex
	decoded := 0
	reports := func(r galiot.FramesReport) {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range r.Frames {
			decoded++
			log.Printf("cloud decoded %-5s @%-9d crc=%v payload=%x", f.Tech, f.Offset, f.CRCOK, f.Payload)
		}
	}
	err = gw.RunResilient(galiot.GatewayResilient{
		Dial: func() (io.ReadWriteCloser, error) {
			return net.Dial("tcp", *cloudAddr)
		},
		Retry:         galiot.RetryPolicy{MaxAttempts: *retry, Seed: *seed},
		SpoolCapacity: *spool,
		Epoch:         uint64(time.Now().UnixNano()),
		WALDir:        *walDir,
		WALSync:       walPolicy,
	}, captures, reports)
	exit := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-gateway:", err)
		exit = 1
	}

	st := gw.Stats()
	mu.Lock()
	got := decoded
	mu.Unlock()
	log.Printf("gateway done: %d captures, %d detections, %d segments shipped (%d resolved at edge, %d edge frames)",
		st.CapturesProcessed, st.Detections, st.SegmentsShipped, st.SegmentsResolved, st.EdgeFrames)
	log.Printf("backhaul: %d wire bytes vs %d raw bytes (%.1f%% of raw); %d packets on air, %d decoded, %d at edge",
		st.WireBytes, st.RawBytes, 100*float64(st.WireBytes)/float64(st.RawBytes), groundTruth, got, st.EdgeFrames)
	if st.BusyRejects > 0 || st.BadReports > 0 {
		log.Printf("backhaul: %d segments rejected busy by the cloud, %d unparseable replies", st.BusyRejects, st.BadReports)
	}
	snap := reg.Snapshot()
	if rc := snap.Counters["gateway_reconnects_total"]; rc > 0 || exit != 0 {
		log.Printf("resilience: %d reconnects, %d segments dropped to degraded decode, %d replayed",
			snap.Counters["gateway_reconnects_total"],
			snap.Counters["gateway_spool_dropped_total"],
			snap.Counters["gateway_replayed_segments_total"])
		// The journal is the flight recorder for those transitions; dump it
		// alongside the counters so a post-mortem has the exact sequence.
		if data, err := json.Marshal(journal.Recent()); err == nil {
			log.Printf("events: %s", data)
		}
	}
	// The metrics line is the machine-readable exit summary; emit it on
	// failure too so an aborted run still leaves its ledger behind.
	if data, err := json.Marshal(snap); err == nil {
		log.Printf("metrics: %s", data)
	}
	return exit
}
