package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
)

// settle collects garbage before a timed step, so every step starts
// from the same heap state: live data only, with the previous step's
// garbage and the benchmark's own (generated graphs, oracle state) gone.
// Otherwise the GC cycles a step pays depend on what ran before it.
func settle() { runtime.GC() }

// runGraphs is how many graphs a cold-query or dist-tcp run uses. Rounds
// and job times vary by several percent from one G(n, m) instance to the
// next; the median over many instances keeps most of that out of a
// run's figures, which then move with the program rather than with the
// seed.
const runGraphs = 10

// input is one of a run's graphs, in its store, with its oracle.
type input struct {
	path string
	o    *oracle
}

// setupInputs builds the run's graphs setupRepeats times (generation and
// store writes, plus whatever start starts on them) and records the
// median as setup_s. start returns a func that stops what it started;
// each build but the last is stopped, untimed, before the next.
// setupInputs returns the last build and its stop func.
func setupInputs(rc runConfig, r *result, start func(paths []string) (func(), error)) ([]input, func(), error) {
	var times []float64
	var gs []*graph.Graph
	var paths []string
	stop := func() {}
	for rep := 0; rep < setupRepeats; rep++ {
		stop()
		gs, paths = nil, nil
		settle()
		t0 := time.Now()
		for i := 0; i < runGraphs; i++ {
			g, path, err := writeInput(rc.dir, rc.sz, rc.seed, i)
			if err != nil {
				return nil, nil, err
			}
			gs, paths = append(gs, g), append(paths, path)
		}
		if start != nil {
			var err error
			if stop, err = start(paths); err != nil {
				return nil, nil, err
			}
		}
		times = append(times, secs(time.Since(t0)))
	}
	r.setE2E("setup_s", "s", median(times))
	r.note("setup_s samples %v", times)
	ins := make([]input, len(gs))
	for i, g := range gs {
		ins[i] = input{path: paths[i], o: newOracle(g)}
	}
	return ins, stop, nil
}

// answerer produces connectivity and MST answers on a run's i-th input;
// a nil jobTrace means an untraced job. traced, when set, turns one
// traced iteration's jobs into per-layer samples.
type answerer struct {
	conn   func(i int, jt *jobTrace) (*core.Result, error)
	mst    func(i int, jt *jobTrace) (*core.MSTResult, error)
	traced func(s samples, connJT, mstJT *jobTrace, c *core.Result, m *core.MSTResult)
}

// answers are the first answers on one input: later ones must repeat
// them exactly, and other workloads compare against them.
type answers struct {
	conn *core.Result
	mst  *core.MSTResult
}

// answerLoop runs iterations until rc.dur has passed, and at least
// enough to answer connectivity on every input. Iteration it
// answers connectivity on inputs 2it and 2it+1 and MST on input it
// (modulo the input count): a connectivity job costs about a quarter of
// an MST job, so this yields more samples of both within the time. One
// untimed warm-up on input 0 comes first; it pays the process's
// one-time costs (heap growth, sketch tables, connections), which a
// caller running many jobs pays once.
//
// Every answer is checked against its input's oracle and against the
// first answer on that input (results, rounds and every Metrics counter
// repeat exactly). In a traced run iterations alternate untraced and
// traced; a traced iteration traces its first connectivity job and its
// MST job. The end-to-end metrics use the untraced iterations.
func answerLoop(rc runConfig, r *result, ins []input, a answerer) []answers {
	ref := make([]answers, len(ins))
	conn := func(i int, jt *jobTrace) (*core.Result, time.Duration, bool) {
		settle()
		t0 := time.Now()
		c, err := a.conn(i, jt)
		took := time.Since(t0)
		if err != nil {
			r.op(fmt.Sprintf("connectivity on input %d: %v", i, err))
			return nil, 0, false
		}
		checkConn(r, ins[i].o, c)
		if ref[i].conn == nil {
			ref[i].conn = c
		} else {
			r.check(sameConn(ref[i].conn, c), "connectivity on input %d differs from the first answer", i)
		}
		return c, took, true
	}
	mst := func(i int, jt *jobTrace) (*core.MSTResult, time.Duration, bool) {
		settle()
		t0 := time.Now()
		m, err := a.mst(i, jt)
		took := time.Since(t0)
		if err != nil {
			r.op(fmt.Sprintf("mst on input %d: %v", i, err))
			return nil, 0, false
		}
		checkMST(r, ins[i].o, m)
		if ref[i].mst == nil {
			ref[i].mst = m
		} else {
			r.check(sameMST(ref[i].mst, m), "MST on input %d differs from the first answer", i)
		}
		return m, took, true
	}
	conn(0, nil)
	mst(0, nil)

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	s := samples{}
	var connS, mstS, plain, traced, rate []float64
	n := len(ins)
	// Every run answers connectivity on all inputs and MST on the first
	// minIters, so the rounds it reports do not depend on its speed.
	minIters := (n + 1) / 2
	start := time.Now()
	for it := 0; time.Since(start) < rc.dur || it < max(minIters, 2); it++ {
		var cjt, mjt *jobTrace
		if rc.trace && it%2 == 1 {
			cjt, mjt = tr.job(), tr.job()
		}
		c, cw, ok1 := conn(2*it%n, cjt)
		_, cw2, ok2 := conn((2*it+1)%n, nil)
		m, mw, ok3 := mst(it%n, mjt)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		if cjt == nil {
			connS = append(connS, secs(cw), secs(cw2))
			mstS = append(mstS, secs(mw))
			plain = append(plain, secs(cw+mw))
			rate = append(rate, 3/secs(cw+cw2+mw))
		} else {
			traced = append(traced, secs(cw+mw))
			if a.traced != nil {
				a.traced(s, cjt, mjt, c, m)
			}
			r.spans = append(r.spans, cjt.spans...)
			r.spans = append(r.spans, mjt.spans...)
		}
	}
	r.setE2E("conn_s", "s", median(connS))
	r.setE2E("mst_s", "s", median(mstS))
	r.setE2E("ops_per_s", "1/s", median(rate))
	r.note("conn_s samples %v", connS)
	r.note("mst_s samples %v", mstS)
	var connRounds, mstRounds []float64
	for i, a := range ref {
		if a.conn != nil {
			connRounds = append(connRounds, float64(a.conn.Metrics.Rounds))
		}
		if a.mst != nil && i < minIters {
			mstRounds = append(mstRounds, float64(a.mst.Metrics.Rounds))
		}
	}
	r.setE2E("conn_rounds", "count", mean(connRounds))
	r.setE2E("mst_rounds", "count", mean(mstRounds))
	if first := ref[0]; first.conn != nil && first.mst != nil {
		s.add("transport.max_link_bits", float64(first.conn.Metrics.MaxLinkBits))
		s.add("core.phases", float64(first.conn.Phases))
		s.add("core.sketch_failures", float64(first.conn.SketchFailures))
		s.add("core.collapse_iters", float64(first.conn.CollapseIters))
		s.add("core.mst_elim_iters", float64(first.mst.ElimIters))
		s.add("transport.msgs", float64(first.conn.Metrics.Messages))
		s.add("transport.payload_bytes", float64(first.conn.Metrics.PayloadBytes))
		s.add("transport.total_bits", float64(first.conn.Metrics.TotalBits()))
	}
	if rc.trace && len(plain) > 0 && len(traced) > 0 {
		base := median(plain)
		s.add("trace.base_s", base)
		s.add("trace.overhead_share", median(traced)/base-1)
	}
	s.into(r)
	return ref
}

// sameConn reports whether two connectivity answers are identical,
// Metrics included.
func sameConn(a, b *core.Result) bool {
	return reflect.DeepEqual(a.Labels, b.Labels) && a.Components == b.Components &&
		a.Phases == b.Phases && a.SketchFailures == b.SketchFailures &&
		a.CollapseIters == b.CollapseIters && reflect.DeepEqual(a.Metrics, b.Metrics)
}

// sameMST reports whether two MST answers are identical, Metrics included.
func sameMST(a, b *core.MSTResult) bool {
	return reflect.DeepEqual(a.Edges, b.Edges) && reflect.DeepEqual(a.Labels, b.Labels) &&
		a.Phases == b.Phases && a.ElimIters == b.ElimIters &&
		a.SketchFailures == b.SketchFailures && reflect.DeepEqual(a.Metrics, b.Metrics)
}

// addSplit records one traced job's wall time charged to layers.
func addSplit(s samples, job string, wall time.Duration, parts map[string]time.Duration) {
	s.add("split."+job+".wall_s", secs(wall))
	for _, l := range splitLayers {
		s.add("split."+job+"."+l+"_s", secs(parts[l]))
	}
}
