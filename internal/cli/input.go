package cli

import (
	"cmp"
	"fmt"
	"strings"

	"kmgraph"
)

// Input is the graph-input flag group: a generated graph (-gen with its
// -n/-m/-p/-c parameters) or a stored one (-store: a kmgs container or
// a text edge list). Before Run the fields hold the command's defaults;
// a command registers only the flags it offers, and the rest keep their
// defaults.
type Input struct {
	Gen   string
	N, M  int // M = 0 means MPerN·N
	P     float64
	C     int
	Store string
	// MPerN is the default edge count per vertex when -m is 0.
	MPerN int
	// Weighted gives generated graphs distinct random edge weights.
	Weighted bool
	cmd      *Cmd
}

// generator is one -gen entry: the parameter flags it reads (a subset
// of "mpc"), the largest -c it accepts, and its constructor.
type generator struct {
	params string
	maxC   func(n int) int
	build  func(in *Input, seed int64) *kmgraph.Graph
}

var generators = map[string]generator{
	"gnm": {params: "m", build: func(in *Input, seed int64) *kmgraph.Graph { return kmgraph.GNM(in.N, in.M, seed) }},
	"gnp": {params: "p", build: func(in *Input, seed int64) *kmgraph.Graph { return kmgraph.GNP(in.N, in.P, seed) }},
	"powerlaw": {params: "m", build: func(in *Input, seed int64) *kmgraph.Graph {
		return kmgraph.ChungLu(in.N, 2.5, float64(in.M)*2/float64(in.N), seed)
	}},
	"path":     {build: func(in *Input, _ int64) *kmgraph.Graph { return kmgraph.Path(in.N) }},
	"cycle":    {build: func(in *Input, _ int64) *kmgraph.Graph { return kmgraph.Cycle(in.N) }},
	"star":     {build: func(in *Input, _ int64) *kmgraph.Graph { return kmgraph.Star(in.N) }},
	"complete": {build: func(in *Input, _ int64) *kmgraph.Graph { return kmgraph.Complete(in.N) }},
	"components": {params: "c", maxC: func(n int) int { return n }, build: func(in *Input, seed int64) *kmgraph.Graph {
		return kmgraph.DisjointComponents(in.N, in.C, 0.5, seed)
	}},
	"planted": {params: "c", maxC: func(n int) int { return n }, build: func(in *Input, seed int64) *kmgraph.Graph {
		return kmgraph.PlantedPartition(in.N, in.C, 0.1, 0.001, seed)
	}},
	"bridged": {params: "c", maxC: func(n int) int { return (n / 2) * (n / 2) }, build: func(in *Input, seed int64) *kmgraph.Graph {
		return kmgraph.TwoCliquesBridged(in.N/2, in.C, seed)
	}},
}

// Input registers the named input flags (any of gen, n, m, p, c, store)
// with defaults taken from def; zero fields default to -gen gnm,
// -p 0.01, -c 5 and MPerN 3.
func (c *Cmd) Input(def Input, names ...string) *Input {
	in := &def
	in.cmd = c
	in.Gen = cmp.Or(in.Gen, "gnm")
	in.P = cmp.Or(in.P, 0.01)
	in.C = cmp.Or(in.C, 5)
	in.MPerN = cmp.Or(in.MPerN, 3)
	fs := c.Flags
	for _, name := range names {
		switch name {
		case "gen":
			fs.StringVar(&in.Gen, "gen", in.Gen, "graph generator: gnm|gnp|powerlaw|path|cycle|star|complete|components|planted|bridged")
		case "n":
			fs.IntVar(&in.N, "n", in.N, "vertices")
		case "m":
			fs.IntVar(&in.M, "m", in.M, fmt.Sprintf("edges (gnm, powerlaw; default %dn)", in.MPerN))
		case "p":
			fs.Float64Var(&in.P, "p", in.P, "edge probability (gnp)")
		case "c":
			fs.IntVar(&in.C, "c", in.C, "components, communities or bridges (components, planted, bridged)")
		case "store":
			fs.StringVar(&in.Store, "store", "", "read the graph from a kmgs store or text edge list; served shard-direct where the run allows")
		default:
			panic("cli: unknown input flag " + name)
		}
	}
	c.checks = append(c.checks, in.validate)
	return in
}

// Stored reports whether the graph comes from -store.
func (in *Input) Stored() bool { return in.Store != "" }

func (in *Input) validate() error {
	c := in.cmd
	if in.Stored() {
		return c.Reject("does not apply to -store", "gen", "n", "m", "p", "c")
	}
	gen, ok := generators[in.Gen]
	if !ok {
		return Usagef("unknown generator %q", in.Gen)
	}
	for _, param := range []string{"m", "p", "c"} {
		if c.set[param] && !strings.Contains(gen.params, param) {
			return Usagef("-%s is not read by -gen %s", param, in.Gen)
		}
	}
	if in.M == 0 {
		in.M = in.MPerN * in.N
	}
	switch maxM := in.N * (in.N - 1) / 2; {
	case in.N < 2 || (in.Gen == "cycle" && in.N < 3):
		return Usagef("%s needs more vertices than n=%d", in.Gen, in.N)
	case strings.Contains(gen.params, "m") && (in.M < 0 || in.M > maxM):
		return Usagef("m=%d out of range for n=%d: want 0 <= m <= n(n-1)/2 = %d", in.M, in.N, maxM)
	case strings.Contains(gen.params, "p") && (in.P < 0 || in.P > 1):
		return Usagef("p=%g out of range: want 0 <= p <= 1", in.P)
	case gen.maxC != nil && (in.C < 1 || in.C > gen.maxC(in.N)):
		return Usagef("%s with n=%d needs 1 <= c <= %d (got c=%d)", in.Gen, in.N, gen.maxC(in.N), in.C)
	}
	return nil
}

// Graph materializes the input: the generated graph, or the whole
// store drained into memory.
func (in *Input) Graph() (*kmgraph.Graph, error) {
	if in.Stored() {
		src, closer, err := kmgraph.OpenSource(in.Store)
		if err != nil {
			return nil, err
		}
		edges, err := kmgraph.DrainEdgeSource(src)
		n := src.N()
		closer.Close()
		if err != nil {
			return nil, err
		}
		return kmgraph.FromEdges(n, edges), nil
	}
	seed := in.cmd.Seed
	g := generators[in.Gen].build(in, seed)
	if in.Weighted {
		g = kmgraph.WithDistinctWeights(g, seed+1)
	}
	return g, nil
}

// Spec maps the input to a dist source spec that every worker opens on
// its own: the -store path, or the streaming GNM generator. Only sparse
// unweighted GNM qualifies: above m = n(n-1)/4 the in-memory GNM samples
// the complement, which the workers' StreamGNM does not, so the workers
// would run a different graph than a local run.
func (in *Input) Spec() (string, error) {
	switch {
	case in.Stored():
		return "store:" + in.Store, nil
	case in.Weighted:
		return "", Usagef("-transport tcp needs -store (the workers cannot regenerate distinct edge weights)")
	case in.Gen != "gnm":
		return "", Usagef("-transport tcp needs -store or -gen gnm (the only generator the workers replay)")
	case in.M > in.N*(in.N-1)/4:
		return "", Usagef("-transport tcp: dense gnm (m=%d > n(n-1)/4=%d) is sampled differently by the workers; use a kmgs store", in.M, in.N*(in.N-1)/4)
	}
	return fmt.Sprintf("gnm:%d:%d:%d", in.N, in.M, in.cmd.Seed), nil
}
