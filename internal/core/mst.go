// MST construction (§3.1, Theorem 2): Boruvka phases as in connectivity,
// but each phase finds every component's minimum-weight outgoing edge
// (MWOE) by repeated sketch-and-eliminate: sample a random outgoing edge,
// broadcast its weight to the component's parts, re-sketch only strictly
// lighter edges, and repeat until the sampler reports an empty vector —
// the last sampled edge is then the MWOE w.h.p. Every MWOE is an MST edge
// by the cut property (weights are totally ordered by (w, edge ID), so the
// MST is unique); components then merge along DRR trees exactly as in the
// connectivity algorithm.
//
// Output criteria (Theorem 2): by default every MST edge is known to at
// least one machine (the proxy that recorded it), achieving Õ(n/k²)
// rounds. StrongOutput additionally routes every MST edge to the home
// machines of both endpoints — the classical output criterion — which the
// paper proves costs Θ̃(n/k) in the worst case (experiment E7 reproduces
// the star-graph separation).

package core

import (
	"context"
	"fmt"
	"sort"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
)

// MSTConfig parameterizes an MST run.
type MSTConfig struct {
	Config
	// StrongOutput also delivers each MST edge to both endpoints' home
	// machines (Theorem 2(b)).
	StrongOutput bool
	// MaxElimIters caps elimination iterations per phase; 0 selects
	// 2·ceil(log2 n) + 8 (enough for w.h.p. convergence).
	MaxElimIters int
}

// MSTResult is the outcome of an MST run.
type MSTResult struct {
	// Edges is the minimum spanning forest under the (weight, edge ID)
	// order, in canonical form, sorted by edge ID.
	Edges []graph.Edge
	// TotalWeight is the forest weight.
	TotalWeight int64
	// Labels is the final component labeling (as in connectivity).
	Labels []uint64
	// Phases is the number of Boruvka phases executed.
	Phases int
	// ElimIters is the total number of elimination iterations.
	ElimIters int
	// SketchFailures counts sampling failures.
	SketchFailures int64
	// WeakRounds is the round count before strong-output dissemination
	// (equals Metrics.Rounds when StrongOutput is false).
	WeakRounds int
	// VertexEdges, in StrongOutput mode, maps each vertex to the MST
	// edges incident to it as known by its home machine.
	VertexEdges map[int][]graph.Edge
	// Metrics is the engine's cost accounting.
	Metrics kmachine.Metrics
}

type mstOutput struct {
	labels      map[int]uint64
	edges       []graph.Edge
	vertexEdges map[int][]graph.Edge
	failures    int64
	phases      int
	elimIters   int
	weakRounds  int
}

// DefaultMaxElimIters returns the default per-phase elimination cap for an
// n-vertex input: 2·ceil(log2 n) + 8, enough for w.h.p. convergence.
func DefaultMaxElimIters(n int) int {
	l := 0
	for s := 1; s < n; s <<= 1 {
		l++
	}
	return 2*l + 8
}

// RunMST executes the MST algorithm on g under a fresh random vertex
// partition.
func RunMST(g *graph.Graph, cfg MSTConfig) (*MSTResult, error) {
	return RunMSTContext(context.Background(), g, cfg)
}

// RunMSTContext is RunMST with cancellation: when ctx is cancelled or its
// deadline passes, the underlying cluster aborts and ctx.Err() is
// returned.
func RunMSTContext(ctx context.Context, g *graph.Graph, cfg MSTConfig) (*MSTResult, error) {
	cfg = cfg.WithDefaults(g.N())
	part := kmachine.NewRVP(g, cfg.K, uint64(cfg.Seed)^0x9e37)
	view := func(id int) GraphView { return part.View(id) }
	res, err := runCluster(ctx, cfg.Config, MSTHandler(view, cfg))
	if err != nil {
		return nil, err
	}
	return assembleMST(g.N(), res)
}

func assembleMST(n int, res *kmachine.Result) (*MSTResult, error) {
	out := &MSTResult{Labels: make([]uint64, n), Metrics: res.Metrics}
	byID := make(map[uint64]graph.Edge)
	for i, o := range res.Outputs {
		mo, ok := o.(*mstOutput)
		if !ok {
			return nil, fmt.Errorf("core: machine %d produced no MST output", i)
		}
		for v, l := range mo.labels {
			out.Labels[v] = l
		}
		for _, e := range mo.edges {
			byID[graph.EdgeID(e.U, e.V, n)] = e
		}
		out.SketchFailures += mo.failures
		if mo.phases > out.Phases {
			out.Phases = mo.phases
		}
		if mo.elimIters > out.ElimIters {
			out.ElimIters = mo.elimIters
		}
		if mo.weakRounds > out.WeakRounds {
			out.WeakRounds = mo.weakRounds
		}
		if mo.vertexEdges != nil {
			if out.VertexEdges == nil {
				out.VertexEdges = make(map[int][]graph.Edge)
			}
			for v, es := range mo.vertexEdges {
				out.VertexEdges[v] = es
			}
		}
	}
	ids := make([]uint64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := byID[id]
		out.Edges = append(out.Edges, e)
		out.TotalWeight += e.W
	}
	return out, nil
}

type mstMachine struct {
	*machine
	mstCfg MSTConfig
	w      *MWOE
}

func (m *mstMachine) run() error {
	defer m.ReleasePools()
	if err := m.Setup(); err != nil {
		return err
	}
	m.w = NewMWOE(m.Merger, m.mstCfg.MaxElimIters)
	out := &mstOutput{}
	for m.Phase = 0; m.Phase < m.Cfg.MaxPhases; m.Phase++ {
		m.StateSlot = 0
		m.PhaseActive = 0
		m.w.Select()
		m.Collapse()
		m.BroadcastAndRelabel()
		active, failures, _ := m.PhaseSync()
		if m.Cfg.PhaseHook != nil && m.Ctx.ID() == m.Cfg.PhaseHookID {
			m.Cfg.PhaseHook(m.Phase, m.Ctx.Round())
		}
		out.phases = m.Phase + 1
		if active == 0 && failures == 0 {
			break
		}
	}
	out.weakRounds = m.Ctx.Round()

	if m.mstCfg.StrongOutput {
		out.vertexEdges = m.w.DisseminateStrong()
	}

	out.labels = m.Labels
	out.failures = m.Failures
	out.elimIters = m.w.ElimIters
	var edges []graph.Edge
	for _, id := range SortedKeys(m.w.Edges) {
		edges = append(edges, m.w.Edges[id])
	}
	out.edges = edges
	m.Ctx.SetOutput(out)
	return nil
}
