package resident

import (
	"context"
	"math"
	"testing"

	"kmgraph/internal/graph"
)

// The Theorem 3 min-cut and Theorem 4 verification reductions, each a
// job of derived-view connectivity runs on one residency.

func approxRatioOK(t *testing.T, name string, got float64, want int64, n int) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: estimate %.1f for disconnected graph", name, got)
		}
		return
	}
	ratio := got / float64(want)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	// Theorem 3: O(log n)-approximation. Allow a generous constant.
	bound := 6 * math.Log(float64(n)+2)
	if ratio > bound {
		t.Errorf("%s: estimate %.1f vs true %d: ratio %.1f exceeds %.1f",
			name, got, want, ratio, bound)
	}
}

// minCut loads g under cfg and runs one MinCut job with the given trials
// per level (0 = default) and the default level cap.
func minCut(t *testing.T, g *graph.Graph, cfg Config, trials int) *MinCutResult {
	t.Helper()
	res, err := mustEngine(t, g, cfg).MinCut(context.Background(), trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDisconnectedInput(t *testing.T) {
	g := graph.DisjointComponents(80, 2, 0.5, 1)
	res := minCut(t, g, Config{K: 4, Seed: 1}, 0)
	if res.Estimate != 0 || res.Level != -1 {
		t.Errorf("estimate = %.1f level = %d, want 0/-1", res.Estimate, res.Level)
	}
}

func TestKnownCuts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"path", graph.Path(60), 1},
		{"cycle", graph.Cycle(60), 2},
		{"bridged-1", graph.TwoCliquesBridged(15, 1, 2), 1},
		{"bridged-4", graph.TwoCliquesBridged(15, 4, 3), 4},
		{"complete", graph.Complete(30), 29},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := minCut(t, tc.g, Config{K: 4, Seed: 7}, 0)
			if oracle := graph.MinCut(tc.g); oracle != tc.want {
				t.Fatalf("oracle says %d, test expects %d", oracle, tc.want)
			}
			approxRatioOK(t, tc.name, res.Estimate, tc.want, tc.g.N())
			if res.Runs == 0 || res.Rounds == 0 {
				t.Error("no work accounted")
			}
		})
	}
}

func TestEstimateOrdersCuts(t *testing.T) {
	// A graph with λ=1 should get a smaller estimate than one with λ=24.
	low := minCut(t, graph.TwoCliquesBridged(12, 1, 4), Config{K: 4, Seed: 5}, 0)
	high := minCut(t, graph.Complete(25), Config{K: 4, Seed: 5}, 0)
	if low.Estimate >= high.Estimate {
		t.Errorf("λ=1 estimate %.1f not below λ=24 estimate %.1f", low.Estimate, high.Estimate)
	}
}

func TestTrialsConfig(t *testing.T) {
	res := minCut(t, graph.Cycle(40), Config{K: 3, Seed: 2}, 5)
	// runs = 1 (base) + levels*5
	if (res.Runs-1)%5 != 0 {
		t.Errorf("runs = %d inconsistent with 5 trials per level", res.Runs)
	}
}

// verifyCfg is the engine config the verification tests load under.
var verifyCfg = Config{K: 4, Seed: 5}

// verifier returns a Verify caller over one engine loaded with g.
func verifier(t *testing.T, g *graph.Graph, cfg Config) func(Problem, VerifyArgs) (*VerifyOutcome, error) {
	t.Helper()
	e := mustEngine(t, g, cfg)
	return func(p Problem, args VerifyArgs) (*VerifyOutcome, error) {
		return e.Verify(context.Background(), p, args)
	}
}

func TestSpanningConnectedSubgraph(t *testing.T) {
	g := graph.RandomConnected(80, 200, 1)
	tree, _ := graph.KruskalMST(g)
	verify := verifier(t, g, verifyCfg)

	out, err := verify(SpanningConnectedSubgraph, VerifyArgs{H: tree})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("spanning tree should verify as SCS")
	}
	// Remove one tree edge: no longer spanning connected.
	out, err = verify(SpanningConnectedSubgraph, VerifyArgs{H: tree[1:]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("tree minus an edge is not connected")
	}
	// The full graph is an SCS of itself (when connected).
	out, err = verify(SpanningConnectedSubgraph, VerifyArgs{H: g.Edges()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("G should be an SCS of itself")
	}
	// Empty subgraph of a >1 vertex graph is not.
	out, err = verify(SpanningConnectedSubgraph, VerifyArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("empty subgraph should fail")
	}
}

func TestCutVerification(t *testing.T) {
	g := graph.TwoCliquesBridged(10, 2, 3)
	// The two bridge edges form a cut.
	var bridges []graph.Edge
	for _, e := range g.Edges() {
		if (e.U < 10) != (e.V < 10) {
			bridges = append(bridges, e)
		}
	}
	if len(bridges) != 2 {
		t.Fatalf("expected 2 bridges, got %d", len(bridges))
	}
	verify := verifier(t, g, verifyCfg)
	out, err := verify(CutVerification, VerifyArgs{Cut: bridges})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("bridges form a cut")
	}
	if out.Runs != 2 {
		t.Errorf("runs = %d, want 2", out.Runs)
	}
	// One bridge alone is not a cut.
	out, err = verify(CutVerification, VerifyArgs{Cut: bridges[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("single bridge is not a cut here")
	}
}

func TestSTConnectivity(t *testing.T) {
	g := graph.DisjointComponents(60, 2, 0.5, 7)
	labels, _ := graph.Components(g)
	var s, tt int
	sameFound, diffFound := false, false
	for v := 1; v < g.N(); v++ {
		if labels[v] == labels[0] && !sameFound {
			s = v
			sameFound = true
		}
		if labels[v] != labels[0] && !diffFound {
			tt = v
			diffFound = true
		}
	}
	if !sameFound || !diffFound {
		t.Skip("degenerate component split")
	}
	verify := verifier(t, g, verifyCfg)
	out, err := verify(STConnectivity, VerifyArgs{S: 0, T: s})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("same-component pair should connect")
	}
	out, err = verify(STConnectivity, VerifyArgs{S: 0, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("cross-component pair should not connect")
	}
	if _, err := verify(STConnectivity, VerifyArgs{S: -1, T: 5}); err == nil {
		t.Error("out of range should error")
	}
}

func TestEdgeOnAllPaths(t *testing.T) {
	// On a path graph, every edge lies on all paths between the ends.
	out, err := verifier(t, graph.Path(30), verifyCfg)(EdgeOnAllPaths,
		VerifyArgs{S: 0, T: 29, E: graph.Edge{U: 10, V: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("path edge should be on all paths")
	}
	// On a cycle, no single edge is on all paths.
	out, err = verifier(t, graph.Cycle(30), verifyCfg)(EdgeOnAllPaths,
		VerifyArgs{S: 0, T: 15, E: graph.Edge{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("cycle edge is never on all paths")
	}
}

func TestSTCut(t *testing.T) {
	g := graph.TwoCliquesBridged(8, 1, 9)
	var bridge graph.Edge
	for _, e := range g.Edges() {
		if (e.U < 8) != (e.V < 8) {
			bridge = e
		}
	}
	verify := verifier(t, g, verifyCfg)
	out, err := verify(STCutVerification, VerifyArgs{S: 0, T: 15, Cut: []graph.Edge{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("bridge is an s-t cut across the cliques")
	}
	out, err = verify(STCutVerification, VerifyArgs{S: 0, T: 7, Cut: []graph.Edge{bridge}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("bridge does not separate same-clique vertices")
	}
}

func TestBipartiteness(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"even-cycle", graph.Cycle(20), true},
		{"odd-cycle", graph.Cycle(21), false},
		{"grid", graph.Grid(5, 6), true},
		{"complete", graph.Complete(8), false},
		{"random-bipartite", graph.RandomBipartite(20, 25, 0.2, 3), true},
		{"tree", graph.RandomTree(50, 4), true},
		{"edgeless", graph.NewBuilder(10).Build(), true},
		{"two-odd-cycles", graph.DisjointComponents(9, 9, 0, 1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := verifier(t, tc.g, verifyCfg)(Bipartiteness, VerifyArgs{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Holds != tc.want {
				t.Errorf("bipartite = %v, want %v (oracle %v)",
					out.Holds, tc.want, graph.IsBipartite(tc.g))
			}
		})
	}
}

func TestCycleContainment(t *testing.T) {
	hasCycle := func(g *graph.Graph) bool {
		out, err := verifier(t, g, verifyCfg)(CycleContainment, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		return out.Holds
	}
	if hasCycle(graph.RandomTree(40, 5)) {
		t.Error("tree has no cycle")
	}
	if !hasCycle(graph.Cycle(12)) {
		t.Error("cycle graph has a cycle")
	}
	if hasCycle(graph.DisjointComponents(40, 4, 0, 6)) {
		t.Error("forest has no cycle")
	}
}

func TestECycleContainment(t *testing.T) {
	// Clique edges are on cycles; the tail edges are bridges.
	verify := verifier(t, graph.Lollipop(6, 4), verifyCfg)
	out, err := verify(ECycleContainment, VerifyArgs{E: graph.Edge{U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Holds {
		t.Error("clique edge lies on a cycle")
	}
	out, err = verify(ECycleContainment, VerifyArgs{E: graph.Edge{U: 6, V: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Holds {
		t.Error("tail edge is a bridge")
	}
	if _, err := verify(ECycleContainment, VerifyArgs{E: graph.Edge{U: 0, V: 9}}); err == nil {
		t.Error("non-edge should error")
	}
}

func TestOutcomeAccounting(t *testing.T) {
	out, err := verifier(t, graph.Cycle(30), verifyCfg)(Bipartiteness, VerifyArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs != 2 || out.Rounds <= 0 {
		t.Errorf("runs=%d rounds=%d", out.Runs, out.Rounds)
	}
}

func TestVerifiersMatchOraclesRandomized(t *testing.T) {
	// Randomized cross-validation of the reductions on mixed graphs.
	for seed := int64(0); seed < 6; seed++ {
		g := graph.GNM(60, 90+int(seed)*20, seed)
		verify := verifier(t, g, Config{K: 3, Seed: seed})
		out, err := verify(Bipartiteness, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Holds != graph.IsBipartite(g) {
			t.Errorf("seed %d: bipartite mismatch", seed)
		}
		cyc, err := verify(CycleContainment, VerifyArgs{})
		if err != nil {
			t.Fatal(err)
		}
		if cyc.Holds != graph.HasCycle(g) {
			t.Errorf("seed %d: cycle mismatch", seed)
		}
	}
}
