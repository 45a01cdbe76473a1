package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/telemetry"
	"kmgraph/internal/transport"
)

// This file is the fleet backend: a graph whose jobs run not on a
// resident in-process cluster but over a kmworker fleet, served as an
// ordinary tenant under /graphs/{name}/ with graceful degradation. A
// health prober keeps a per-fleet state gauge (kmserve_graph_state: 2
// healthy, 1 degraded, 0 down); jobs against a down fleet fail at once
// with errUnavailable (503 + Retry-After) instead of timing out,
// degraded fleets are attempted under the coordinator's
// retry-with-respawn policy, and every recovery attempt is visible on
// GET /metrics (kmgraph_dist_retries_total,
// kmgraph_dist_heartbeats_missed_total, kmgraph_dist_recovery_seconds —
// the dist layer's telemetry lands in this server's registry).

// Fleet states, in ascending health.
const (
	fleetDown     = 0 // no worker reachable
	fleetDegraded = 1 // some, but not all, workers reachable
	fleetHealthy  = 2 // full fleet reachable
)

func fleetStateName(s int64) string {
	switch s {
	case fleetHealthy:
		return "healthy"
	case fleetDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// FleetSpec describes one distributed-backed graph: the job source
// every worker rematerializes its shard from, the worker fleet, and the
// coordinator tuning used for jobs against it.
type FleetSpec struct {
	// Source is the dist source spec (store:<path>, gnm:<n>:<m>:<seed>,
	// rmat:<n>:<m>:<seed>). Store paths must be readable by the workers.
	Source string
	// Addrs are the kmworker addresses. Jobs need the whole fleet.
	Addrs []string
	// Conn is the base algorithm configuration (K must be >=
	// len(Addrs); zero-valued tuning fields resolve worker-side).
	Conn core.Config
	// Coord tunes heartbeat deadlines and retry recovery for jobs run
	// against this fleet. The zero value uses coordinator defaults
	// (30s heartbeat deadline, no retries).
	Coord dist.CoordOptions
	// ProbeInterval separates fleet health probes (default 5s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one worker dial during a probe (default 2s).
	ProbeTimeout time.Duration
}

func (sp FleetSpec) withDefaults() FleetSpec {
	if sp.ProbeInterval <= 0 {
		sp.ProbeInterval = 5 * time.Second
	}
	if sp.ProbeTimeout <= 0 {
		sp.ProbeTimeout = 2 * time.Second
	}
	return sp
}

// fleet is the backend of one distributed-backed graph. Its source is
// immutable, so its epoch is always 0 and cached answers never go stale.
type fleet struct {
	name  string
	spec  FleetSpec
	state atomic.Int64 // fleetDown / fleetDegraded / fleetHealthy

	// spans accumulates the phase spans workers stream back during fleet
	// jobs; GET /graphs/{name}/trace serves the most recent job's
	// assembled multi-pid Chrome trace. jobRounds holds each worker's
	// live heartbeat round count during (and after) the most recent job,
	// surfaced as kmserve_fleet_job_rounds gauges.
	spans     *dist.JobTrace
	jobRounds []atomic.Uint64

	mu sync.Mutex
	up []bool // per-address reachability from the last probe

	stop      chan struct{}
	probeDone chan struct{}
}

// RegisterFleet adds a distributed-backed graph under name, in the same
// name space as Register. The health prober starts immediately; Close
// (or DELETE) stops it.
func (s *Server) RegisterFleet(name string, spec FleetSpec) error {
	spec = spec.withDefaults()
	if len(spec.Addrs) == 0 {
		return fmt.Errorf("server: fleet %q has no workers", name)
	}
	if spec.Conn.K < len(spec.Addrs) {
		return fmt.Errorf("server: fleet %q has k=%d for %d workers (need k >= workers)",
			name, spec.Conn.K, len(spec.Addrs))
	}
	f := &fleet{
		name:      name,
		spec:      spec,
		spans:     &dist.JobTrace{},
		jobRounds: make([]atomic.Uint64, len(spec.Addrs)),
		up:        make([]bool, len(spec.Addrs)),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	f.probeOnce()
	go f.probeLoop()
	if _, err := s.register(name, f); err != nil {
		f.close()
		return err
	}
	return nil
}

// registerMetrics wires the fleet's health and progress gauges.
func (f *fleet) registerMetrics(reg *telemetry.Registry, g telemetry.Label) {
	reg.GaugeFunc("kmserve_graph_state",
		"Fleet-backed graph health: 2 healthy, 1 degraded, 0 down.",
		func() float64 { return float64(f.state.Load()) }, g)
	reg.GaugeFunc("kmserve_fleet_workers_up",
		"Workers reachable at the last fleet health probe.",
		func() float64 { return float64(f.workersUp()) }, g)
	// One gauge per worker: the live engine round count its heartbeats
	// reported during the most recent fleet job.
	for i := range f.spec.Addrs {
		w := i
		reg.GaugeFunc("kmserve_fleet_job_rounds",
			"Engine round count last reported by each worker's heartbeats during a fleet job.",
			func() float64 { return float64(f.jobRounds[w].Load()) },
			g, telemetry.Label{Name: "worker", Value: strconv.Itoa(w)})
	}
}

func (f *fleet) workersUp() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, ok := range f.up {
		if ok {
			n++
		}
	}
	return n
}

// probeOnce dials every worker once and folds the result into the
// state gauge.
func (f *fleet) probeOnce() {
	up := make([]bool, len(f.spec.Addrs))
	n := 0
	for i, a := range f.spec.Addrs {
		c, err := net.DialTimeout("tcp", a, f.spec.ProbeTimeout)
		if err == nil {
			c.Close()
			up[i] = true
			n++
		}
	}
	f.mu.Lock()
	f.up = up
	f.mu.Unlock()
	switch {
	case n == len(up):
		f.state.Store(fleetHealthy)
	case n > 0:
		f.state.Store(fleetDegraded)
	default:
		f.state.Store(fleetDown)
	}
}

func (f *fleet) probeLoop() {
	defer close(f.probeDone)
	tick := time.NewTicker(f.spec.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.probeOnce()
		}
	}
}

// close stops the health prober.
func (f *fleet) close() error {
	close(f.stop)
	<-f.probeDone
	return nil
}

// run runs one coordinator job against the fleet. A known-down fleet is
// refused without dialing; degraded fleets pass, since the retry policy
// may respawn or re-dial its way to a full mesh. A link-down (worker
// lost, retries exhausted) also triggers an immediate re-probe, so the
// state gauge reflects the loss before the next scheduled probe. Both
// come back as errUnavailable, carrying the Retry-After hint: the next
// probe may find the fleet healthy again.
func (f *fleet) run(job func(dist.CoordOptions) error) error {
	retryAfter := strconv.Itoa(int(f.spec.ProbeInterval/time.Second) + 1)
	if f.state.Load() == fleetDown {
		return &errUnavailable{retryAfter: retryAfter,
			err: fmt.Errorf("fleet %q unavailable (0/%d workers reachable)", f.name, len(f.spec.Addrs))}
	}
	opts := f.spec.Coord
	opts.Trace = f.spans
	opts.Progress = func(worker int, rounds uint64) {
		// A worker beats 0 before its engine starts and after it
		// finishes; that is no count, so keep the last real one.
		if rounds > 0 && worker >= 0 && worker < len(f.jobRounds) {
			f.jobRounds[worker].Store(rounds)
		}
	}
	err := job(opts)
	if errors.Is(err, transport.ErrLinkDown) {
		go f.probeOnce()
		return &errUnavailable{retryAfter: retryAfter, err: fmt.Errorf("fleet %q degraded: %w", f.name, err)}
	}
	return err
}

func (f *fleet) connectivity(ctx context.Context) (connectivityResponse, error) {
	var res *core.Result
	err := f.run(func(opts dist.CoordOptions) (err error) {
		res, err = dist.RunConnectivityOpts(ctx, f.spec.Addrs, f.spec.Source, f.spec.Conn, opts)
		return err
	})
	if err != nil {
		return connectivityResponse{}, err
	}
	return connectivityResponse{
		Components:     res.Components,
		Phases:         res.Phases,
		Rounds:         res.Metrics.Rounds,
		SketchFailures: res.SketchFailures,
		Labels:         res.Labels,
	}, nil
}

func (f *fleet) mst(ctx context.Context, strong bool) (mstResponse, error) {
	var res *core.MSTResult
	err := f.run(func(opts dist.CoordOptions) (err error) {
		cfg := core.MSTConfig{Config: f.spec.Conn, StrongOutput: strong}
		res, err = dist.RunMSTOpts(ctx, f.spec.Addrs, f.spec.Source, cfg, opts)
		return err
	})
	if err != nil {
		return mstResponse{}, err
	}
	return newMSTResponse(res, 0), nil
}

func (f *fleet) epoch() uint64 { return 0 }

func (f *fleet) info() graphInfo {
	workers := make(map[string]bool, len(f.spec.Addrs))
	f.mu.Lock()
	for i, a := range f.spec.Addrs {
		workers[a] = f.up[i]
	}
	f.mu.Unlock()
	return graphInfo{
		K:       f.spec.Conn.K,
		Source:  f.spec.Source,
		State:   fleetStateName(f.state.Load()),
		Workers: workers,
	}
}

// trace returns the most recent fleet job's assembled cross-process
// trace (one Chrome-trace pid per worker, built from the phase spans
// workers streamed back on their control connections). Before any job
// has run — or when no job carried a trace ID — the trace is empty and
// the X-Kmserve-Trace-Id header reads 0. Concurrent fleet jobs share the
// collector; the trace reflects whichever job reset it last.
func (f *fleet) trace(h http.Header) any {
	h.Set("X-Kmserve-Trace-Id", fmt.Sprintf("%016x", f.spans.TraceID()))
	return f.spans.Assemble()
}
