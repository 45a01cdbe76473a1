// Command kmverify runs one or more of the Theorem 4 verification
// problems on a generated instance and reports verdicts and cost. All
// problems run against one resident Cluster (the graph is loaded once);
// -timeout bounds each job via context.WithTimeout.
//
// Usage:
//
//	kmverify -problem bipartite|cycle|scs|stconn|cut|all
//	         [-n 1024] [-k 8] [-seed 1] [-timeout 0]
package main

import (
	"fmt"
	"io"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("kmverify", stdout, stderr)
	// One instance serves every problem: a two-community graph with a
	// known bridge structure exercises all the reductions.
	in := c.Input(cli.Input{Gen: "bridged", N: 1024, C: 2}, "n")
	problem := c.Flags.String("problem", "bipartite", "bipartite|cycle|scs|stconn|cut|all")
	return c.Run(args, func() error {
		g, err := in.Graph()
		if err != nil {
			return err
		}
		n := in.N
		var bridgeSet []kmgraph.Edge
		for _, e := range g.Edges() {
			if (e.U < n/2) != (e.V < n/2) {
				bridgeSet = append(bridgeSet, e)
			}
		}
		tree, _ := kmgraph.MSTOracle(g)

		jobs := []struct {
			name string
			p    kmgraph.Problem
			args kmgraph.VerifyArgs
			desc string
		}{
			{"bipartite", kmgraph.ProblemBipartiteness, kmgraph.VerifyArgs{},
				fmt.Sprintf("bipartiteness (oracle: %v)", kmgraph.IsBipartiteOracle(g))},
			{"cycle", kmgraph.ProblemCycleContainment, kmgraph.VerifyArgs{}, "cycle containment"},
			{"scs", kmgraph.ProblemSpanningConnectedSubgraph, kmgraph.VerifyArgs{H: tree},
				"spanning connected subgraph: a spanning tree"},
			{"stconn", kmgraph.ProblemSTConnectivity, kmgraph.VerifyArgs{S: 0, T: g.N() - 1},
				fmt.Sprintf("s-t connectivity between 0 and %d", g.N()-1)},
			{"cut", kmgraph.ProblemCut, kmgraph.VerifyArgs{Cut: bridgeSet},
				fmt.Sprintf("cut verification: the %d bridges", len(bridgeSet))},
		}
		selected := jobs[:0]
		for _, j := range jobs {
			if *problem == "all" || *problem == j.name {
				selected = append(selected, j)
			}
		}
		if len(selected) == 0 {
			return cli.Usagef("unknown problem %q", *problem)
		}

		cl, err := kmgraph.NewCluster(g, c.ClusterOptions()...)
		if err != nil {
			return err
		}
		defer cl.Close()
		c.Printf("graph: two bridged cliques, n=%d m=%d; k=%d, load %d rounds (paid once)\n",
			g.N(), g.M(), c.K, cl.Metrics().LoadRounds)

		for _, j := range selected {
			ctx, cancel := c.Context()
			out, err := cl.Verify(ctx, j.p, j.args)
			cancel()
			if err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
			c.Printf("%-10s %s\n", j.name+":", j.desc)
			c.Printf("           verdict: %v  cost: %d runs, %d rounds\n",
				out.Holds, out.Runs, out.Rounds)
		}
		return nil
	})
}
