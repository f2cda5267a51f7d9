package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// deployment is a gateway↔cloud assembly under test: one gateway over a
// pipe into an inline-decoding cloud, or two durable gateways over loopback
// TCP into a sharded fleet.
type deployment struct {
	w    *workload
	gws  []*gatewayT
	airs []*air  // one per gateway
	pos  []int64 // absolute sample index of each gateway's next capture

	cloud *cloudT     // inline
	plane *fleetPlane // durable
	tmp   string      // durable: holds each gateway's WAL directory
}

// durableGateways is the fan-in of the durable deployment: one connection
// per core of the reference box.
const durableGateways = 2

// deploy generates the workload's air for nblocks blocks per gateway and
// builds the system under test.
func deploy(w *workload, seed uint64, nblocks int, tmpRoot string) (*deployment, error) {
	techs := pickTechs(w.techs...)
	d := &deployment{w: w}
	n := 1
	if w.durable {
		n = durableGateways
	}
	for i := 0; i < n; i++ {
		a, err := makeAir(techs, w.kinds, nblocks, w.perBlock, seed, uint64(i)+1)
		if err != nil {
			return nil, err
		}
		d.airs = append(d.airs, a)
	}
	d.pos = make([]int64, n)
	if !w.durable {
		g, err := newGateway("bench-gw", techs, w.edgeDecode)
		if err != nil {
			return nil, err
		}
		d.gws = []*gatewayT{g}
		d.cloud = newCloud(techs)
		return d, nil
	}
	plane, err := newFleetPlane(techs, durableGateways, 1)
	if err != nil {
		return nil, err
	}
	d.plane = plane
	if d.tmp, err = makeTemp(tmpRoot); err != nil {
		return nil, errors.Join(err, d.close())
	}
	// Sessions are routed by a hash of (gateway ID, epoch); take the first
	// IDs that land one gateway on each shard, so both farm workers serve.
	for shard, c := 0, 0; shard < n; c++ {
		id := fmt.Sprintf("bench-gw-%d", c)
		if plane.shardOf(id, durableEpoch) != shard {
			continue
		}
		g, err := newGateway(id, techs, w.edgeDecode)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.gws = append(d.gws, g)
		shard++
	}
	return d, nil
}

// durableEpoch is the one process lifetime every durable session announces.
const durableEpoch = 1

func makeTemp(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "wal-")
}

// removeTemp deletes a makeTemp directory, and the scratch root with it
// once nothing else is using it.
func removeTemp(dir string) error {
	err := os.RemoveAll(dir)
	_ = os.Remove(filepath.Dir(dir)) // fails, as it should, while the root holds another run's files
	return err
}

func (d *deployment) close() error {
	var err error
	if d.plane != nil {
		err = d.plane.close()
	}
	if d.tmp != "" {
		err = errors.Join(err, removeTemp(d.tmp))
	}
	return err
}

// link runs one session of gateway i to completion: every capture taken
// from captures, every report delivered, bye exchanged.
func (d *deployment) link(i int, nblocks int, captures <-chan []complex128, onReport func(framesReport)) error {
	if d.w.durable {
		addr := d.plane.addr()
		return runDurable(d.gws[i], durableLink{
			dial:     func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) },
			spoolCap: nblocks + 1, // one segment per block: nothing is ever dropped
			epoch:    durableEpoch,
			walDir:   filepath.Join(d.tmp, fmt.Sprintf("gw%d", i)),
		}, captures, onReport)
	}
	gwEnd, cloudEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- serveConn(d.cloud, cloudEnd) }()
	err := runInline(d.gws[i], gwEnd, captures, onReport)
	// Closing the gateway's end ends a cloud session the gateway abandoned;
	// after an orderly bye the cloud has already returned.
	err = errors.Join(err, gwEnd.Close(), <-served, cloudEnd.Close())
	return err
}

// sessionResult is what one session over every gateway measured.
type sessionResult struct {
	wall    time.Duration // first capture offered → last session over
	cpuS    float64       // process user+sys CPU over the same interval
	allocB  uint64        // bytes allocated over the same interval
	samples int64         // antenna samples offered
	count   gwCounters    // summed over the gateways
	verdict verdict
	latMs   []float64 // paced: report time − due time of the segment's block
	lateMs  []float64 // paced: how far behind schedule the generator offered each block
}

// session offers the first nblocks blocks to every gateway and waits until
// the last report is in. period 0 is the closed loop: each capture is
// offered as soon as the gateway takes the previous one. Otherwise block b
// of gateway i is due at t0 + (b + i/gateways)·period, offered then
// whatever the system is doing, and timed from then.
func (d *deployment) session(nblocks int, period time.Duration) sessionResult {
	n := len(d.gws)
	oracles := make([]*oracle, n)
	before := make([]gwCounters, n)
	errs := make([]error, n)
	late := make([][]float64, n)
	for i := range d.gws {
		oracles[i] = newOracle(d.airs[i], nblocks, d.pos[i])
		before[i] = gatewayCounters(d.gws[i])
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range d.gws {
		captures := make(chan []complex128)
		stop := make(chan struct{})
		wg.Add(2)
		go func(i int) { // the feeder: the only load generator of this gateway
			defer wg.Done()
			defer close(captures)
			for b := 0; b < nblocks; b++ {
				due := time.Now()
				if period > 0 {
					due = t0.Add(pacedLead + time.Duration(b)*period + time.Duration(i)*period/time.Duration(n))
					time.Sleep(time.Until(due))
					late[i] = append(late[i], float64(time.Since(due))/1e6)
				}
				oracles[i].setDue(b, due)
				for k, c := range d.airs[i].blocks[b].captures {
					select {
					case captures <- c:
					case <-stop:
						return
					}
					// The gateway takes a capture only when it is done with
					// the one before, so block b-1 is fully processed here
					// and must have emitted its segment.
					if k == 0 && gatewayCounters(d.gws[i]).Detections-before[i].Detections != b {
						oracles[i].heldBack()
					}
				}
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			defer close(stop)
			o := oracles[i]
			errs[i] = d.link(i, nblocks, captures, func(r framesReport) { o.report(r, time.Now()) })
		}(i)
	}
	wg.Wait()
	res := sessionResult{wall: time.Since(t0), cpuS: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&ms)
	res.allocB = ms.TotalAlloc - alloc0
	for i := range d.gws {
		c := gatewayCounters(d.gws[i]).sub(before[i])
		res.count = res.count.add(c)
		res.samples += int64(nblocks) * int64(d.airs[i].blockLen())
		d.pos[i] += int64(nblocks) * int64(d.airs[i].blockLen())
		res.verdict = sumVerdicts(res.verdict, oracles[i].judge(fmt.Sprintf("gateway %d", i), d.airs[i].packetCount(nblocks), nblocks, c, errs[i]))
		res.latMs = append(res.latMs, oracles[i].latencyMs...)
		res.lateMs = append(res.lateMs, late[i]...)
	}
	return res
}

// pacedLead is how long before the first due time a paced session starts,
// so the hello exchange is over when block 0 arrives.
const pacedLead = 50 * time.Millisecond

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
