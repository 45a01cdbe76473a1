package main

import (
	"fmt"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/store"
)

// rvpSalt is the salt core.RunSource applies to the seed for the random
// vertex partition; the cold path must use it to load the same shards.
const rvpSalt = 0x9e37

// coldJob is a one-shot query from a kmgs store, composed of the calls
// core.RunSource makes: store.Open, kmachine.LoadShards,
// kmachine.NewWithTransport, the algorithm's handler, and its assembly.
// With jt non-nil each call is a span and the transport is timed.
type coldJob struct {
	path string
	k    int
	seed int64
	jt   *jobTrace
}

// load opens the store and loads the shards, inside the job's root span.
func (c coldJob) load(root int) (*kmachine.ShardPartition, error) {
	sp := c.jt.begin("store", "store.open", root)
	r, err := store.Open(c.path)
	c.jt.end(sp)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	sp = c.jt.begin("kmachine", "kmachine.load", root)
	part, err := kmachine.LoadShards(r.Source(), c.k, uint64(c.seed)^rvpSalt)
	c.jt.end(sp)
	sp = c.jt.begin("store", "store.close", root)
	cerr := r.Close()
	c.jt.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load shards: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("close store: %w", cerr)
	}
	return part, nil
}

// run builds the cluster for cfg and runs h on it.
func (c coldJob) run(root int, cfg core.Config, h kmachine.Handler) (*kmachine.Result, error) {
	sp := c.jt.begin("kmachine", "kmachine.new", root)
	cluster, err := kmachine.NewWithTransport(kmachine.Config{
		K:                   cfg.K,
		BandwidthBits:       cfg.BandwidthBits,
		MessageOverheadBits: cfg.MessageOverheadBits,
		Seed:                cfg.Seed,
		MaxRounds:           cfg.MaxRounds,
	}, c.jt.maker())
	c.jt.end(sp)
	if err != nil {
		return nil, err
	}
	sp = c.jt.begin("kmachine", "kmachine.run", root)
	res, err := cluster.Run(h)
	c.jt.end(sp)
	c.jt.closeRun(sp)
	return res, err
}

// conn answers connectivity.
func (c coldJob) conn() (*core.Result, error) {
	root := c.jt.begin("job", "job.conn", -1)
	defer c.jt.end(root)
	defer c.jt.countStore()()
	part, err := c.load(root)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{K: c.k, Seed: c.seed}.WithDefaults(part.N())
	c.jt.hookPhases(&cfg)
	view := func(id int) core.GraphView { return part.View(id) }
	res, err := c.run(root, cfg, core.ConnectivityHandler(view, cfg))
	if err != nil {
		return nil, fmt.Errorf("connectivity: %w", err)
	}
	sp := c.jt.begin("core", "core.assemble", root)
	defer c.jt.end(sp)
	return core.Assemble(part.N(), res)
}

// mst answers the minimum spanning forest.
func (c coldJob) mst() (*core.MSTResult, error) {
	root := c.jt.begin("job", "job.mst", -1)
	defer c.jt.end(root)
	defer c.jt.countStore()()
	part, err := c.load(root)
	if err != nil {
		return nil, err
	}
	cfg := core.MSTConfig{Config: core.Config{K: c.k, Seed: c.seed}}.WithDefaults(part.N())
	c.jt.hookPhases(&cfg.Config)
	view := func(id int) core.GraphView { return part.View(id) }
	res, err := c.run(root, cfg.Config, core.MSTHandler(view, cfg))
	if err != nil {
		return nil, fmt.Errorf("mst: %w", err)
	}
	sp := c.jt.begin("core", "core.assemble", root)
	defer c.jt.end(sp)
	return core.AssembleMST(part.N(), res)
}

// runCold is the cold-query workload: connectivity and MST answered
// one-shot from the run's stores (see answerLoop), each job with a fresh
// store open and shard load.
func runCold(rc runConfig, r *result) error {
	ins, _, err := setupInputs(rc, r, nil)
	if err != nil {
		return err
	}
	job := func(i int, jt *jobTrace) coldJob {
		return coldJob{path: ins[i].path, k: rc.sz.k, seed: rc.seed, jt: jt}
	}
	answerLoop(rc, r, ins, answerer{
		conn: func(i int, jt *jobTrace) (*core.Result, error) { return job(i, jt).conn() },
		mst:  func(i int, jt *jobTrace) (*core.MSTResult, error) { return job(i, jt).mst() },
		traced: func(s samples, cjt, mjt *jobTrace, c *core.Result, m *core.MSTResult) {
			coldLayers(s, cjt, c.Metrics.Rounds)
			addSplit(s, "conn", cjt.dur(0), selfTimes(cjt.spans))
			addSplit(s, "mst", mjt.dur(0), selfTimes(mjt.spans))
		},
	})
	if rc.trace {
		r.setLayer("graph.oracle_s", "s", secs(ins[0].o.took))
		return probeLayers(r, ins[0].path, rc.sz.k, rc.seed)
	}
	return nil
}

// coldLayers reads the engine-side layer metrics off a traced cold
// connectivity job.
func coldLayers(s samples, jt *jobTrace, rounds int) {
	var run time.Duration
	for _, sp := range jt.spans {
		if sp.Name == "kmachine.run" {
			run = time.Duration(sp.End - sp.Start)
		}
	}
	round, calls := jt.roundTime()
	machine := run - round
	s.add("transport.round_s", secs(round))
	s.add("transport.round_calls", float64(calls))
	s.add("kmachine.machine_s", secs(machine))
	if rounds > 0 {
		s.add("kmachine.us_per_round", float64(machine.Microseconds())/float64(rounds))
	}
	p0, p0rounds, heap := jt.phase0()
	s.add("core.phase0_s", secs(p0))
	s.add("core.phase0_rounds", float64(p0rounds))
	s.add("core.phase0_heap_bytes", float64(heap))
	s.add("core.tail_phases_s", secs(run-p0))
	s.add("store.blocks_decoded", float64(jt.blocks))
	s.add("store.crc_checks", float64(jt.crcs))
}
