package main

import (
	"context"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport/tcp"
)

// distWorkers is the number of in-process TCP workers of dist-tcp.
const distWorkers = 2

// fleet is a set of dist.Workers serving on loopback in this process.
type fleet struct {
	workers []*dist.Worker
	addrs   []string
	served  chan error
}

func startFleet(n int) (*fleet, error) {
	f := &fleet{served: make(chan error, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		w := dist.NewWorker(ln, dist.WorkerOptions{})
		f.workers = append(f.workers, w)
		f.addrs = append(f.addrs, w.Addr())
		go func() { f.served <- w.Serve() }()
	}
	return f, nil
}

// close stops every worker and waits until each Serve has returned.
func (f *fleet) close() {
	if f == nil {
		return
	}
	for _, w := range f.workers {
		w.Close()
	}
	for range f.workers {
		<-f.served
	}
}

// distJob is one job of the coordinator, dist.Run*Opts. A traced job
// collects the workers' phase spans (CoordOptions.Trace).
type distJob struct {
	addrs  []string
	source string
	k      int
	seed   int64
	jt     *jobTrace
	spans  *dist.JobTrace
}

func (d *distJob) opts() dist.CoordOptions {
	if d.jt == nil {
		return dist.CoordOptions{}
	}
	d.spans = &dist.JobTrace{}
	return dist.CoordOptions{Trace: d.spans}
}

func (d *distJob) conn(ctx context.Context) (*core.Result, error) {
	root := d.jt.begin("job", "job.conn", -1)
	defer d.jt.end(root)
	defer d.jt.countStore()()
	sp := d.jt.begin("dist", "dist.run", root)
	defer d.jt.end(sp)
	return dist.RunConnectivityOpts(ctx, d.addrs, d.source, core.Config{K: d.k, Seed: d.seed}, d.opts())
}

func (d *distJob) mst(ctx context.Context) (*core.MSTResult, error) {
	root := d.jt.begin("job", "job.mst", -1)
	defer d.jt.end(root)
	sp := d.jt.begin("dist", "dist.run", root)
	defer d.jt.end(sp)
	return dist.RunMSTOpts(ctx, d.addrs, d.source, core.MSTConfig{Config: core.Config{K: d.k, Seed: d.seed}}, d.opts())
}

// engineSpans sums one worker's phase spans: the engine's run time on
// that worker and the part of it spent waiting at round barriers.
type engineSpans struct {
	run, wait, phase0, tail time.Duration
	phase0Rounds            int
	frames                  int64
}

// slowestWorker returns the worker whose engine ran longest; its run
// ends last, so the job's wall time waits for it.
func slowestWorker(t *dist.JobTrace) engineSpans {
	var slow engineSpans
	for _, w := range t.WorkerSpans() {
		var e engineSpans
		for _, s := range w.Spans {
			d := time.Duration(s.DurUs) * time.Microsecond
			e.run += d
			e.wait += time.Duration(s.WaitNs)
			e.frames += s.Frames
			if s.Phase == 0 {
				e.phase0, e.phase0Rounds = d, s.Rounds()
			} else {
				e.tail += d
			}
		}
		if e.run > slow.run {
			slow = e
		}
	}
	return slow
}

// distSplit charges a traced distributed job's wall time to layers. The
// workers' spans carry their own clocks, so the split is by duration:
// barrier wait is the transport, the rest of the slowest worker's engine
// run is core (machine-side compute), the rest of the coordinator call
// (mesh, shard loading on the workers, result gather, assembly) is dist.
func distSplit(s samples, name string, jt *jobTrace, spans *dist.JobTrace) engineSpans {
	e := slowestWorker(spans)
	wall, run := jt.dur(0), jt.dur(1)
	addSplit(s, name, wall, map[string]time.Duration{
		"transport": e.wait,
		"core":      e.run - e.wait,
		"dist":      run - e.run,
		"remainder": wall - run,
	})
	return e
}

// tcpBytesSent sums the tcp transport's bytes-sent counters over the
// peer indices of this fleet.
func tcpBytesSent() int64 {
	var total int64
	reg := tcp.Telemetry()
	for i := 0; i < distWorkers; i++ {
		total += reg.Counter("kmgraph_transport_bytes_sent_total", "",
			telemetry.Label{Name: "peer", Value: strconv.Itoa(i)}).Value()
	}
	return total
}

// runDist is the dist-tcp workload: the cold-query graphs and jobs, run
// by the coordinator over in-process workers on loopback.
func runDist(rc runConfig, r *result) error {
	var f *fleet
	ins, stop, err := setupInputs(rc, r, func([]string) (func(), error) {
		var err error
		f, err = startFleet(distWorkers)
		return f.close, err
	})
	if err != nil {
		return err
	}
	defer stop()
	ctx := context.Background()
	job := func(i int, jt *jobTrace) (*distJob, error) {
		abs, err := filepath.Abs(ins[i].path)
		return &distJob{addrs: f.addrs, source: "store:" + abs, k: rc.sz.k, seed: rc.seed, jt: jt}, err
	}
	// The last traced jobs, for the traced callback.
	var connJob, mstJob *distJob
	var connSent float64 // tcp bytes the traced connectivity job wrote
	ref := answerLoop(rc, r, ins, answerer{
		conn: func(i int, jt *jobTrace) (*core.Result, error) {
			d, err := job(i, jt)
			if err != nil {
				return nil, err
			}
			before := tcpBytesSent()
			res, err := d.conn(ctx)
			if jt != nil {
				connJob, connSent = d, float64(tcpBytesSent()-before)
			}
			return res, err
		},
		mst: func(i int, jt *jobTrace) (*core.MSTResult, error) {
			d, err := job(i, jt)
			if err != nil {
				return nil, err
			}
			if jt != nil {
				mstJob = d
			}
			return d.mst(ctx)
		},
		traced: func(s samples, cjt, mjt *jobTrace, c *core.Result, m *core.MSTResult) {
			e := distSplit(s, "conn", cjt, connJob.spans)
			distSplit(s, "mst", mjt, mstJob.spans)
			s.add("dist.phase_span_s", secs(e.run))
			s.add("dist.barrier_wait_s", secs(e.wait))
			s.add("dist.prephase_s", secs(cjt.dur(1)-e.run))
			s.add("dist.frames", float64(e.frames))
			s.add("core.phase0_s", secs(e.phase0))
			s.add("core.phase0_rounds", float64(e.phase0Rounds))
			s.add("core.tail_phases_s", secs(e.tail))
			s.add("store.blocks_decoded", float64(cjt.blocks))
			s.add("store.crc_checks", float64(cjt.crcs))
			s.add("tcp.bytes_sent", connSent)
			s.add("tcp.payload_bytes", float64(c.Metrics.PayloadBytes))
			s.add("tcp.wire_to_payload", connSent/float64(c.Metrics.PayloadBytes))
		},
	})
	if ref[0].conn == nil {
		return nil
	}
	// The same connectivity job on the in-process engine must give an
	// identical answer and Metrics: the transport may not change what is
	// computed. (The MST is checked against Kruskal; a local MST would
	// add a cold-query iteration to every run.)
	lc, err := coldJob{path: ins[0].path, k: rc.sz.k, seed: rc.seed}.conn()
	r.check(err == nil && sameConn(ref[0].conn, lc), "dist-tcp connectivity differs from the local engine's (%v)", err)
	if rc.trace {
		r.setLayer("graph.oracle_s", "s", secs(ins[0].o.took))
		return probeLayers(r, ins[0].path, rc.sz.k, rc.seed)
	}
	return nil
}
