// Command kmcut estimates the minimum cut of a generated network with the
// O(log n)-approximation of Theorem 3 — served from a resident Cluster —
// and compares it to the exact Stoer–Wagner oracle. -timeout bounds the
// whole job via context.WithTimeout.
//
// Usage:
//
//	kmcut [-gen bridged|cycle|complete|gnm|...] [-n 64] [-c 4]
//	      [-k 8] [-seed 1] [-timeout 0]
//
// -gen takes every generator of cmd/kmconnect; -c is the bridge count of
// the default two bridged cliques, and gnm draws 4n edges.
package main

import (
	"io"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("kmcut", stdout, stderr)
	in := c.Input(cli.Input{Gen: "bridged", N: 64, C: 4, MPerN: 4}, "gen", "n", "c")
	return c.Run(args, func() error {
		g, err := in.Graph()
		if err != nil {
			return err
		}
		trueCut := kmgraph.MinCutOracle(g)
		cl, err := kmgraph.NewCluster(g, c.ClusterOptions()...)
		if err != nil {
			return err
		}
		defer cl.Close()
		ctx, cancel := c.Context()
		defer cancel()
		res, err := cl.ApproxMinCut(ctx)
		if err != nil {
			return err
		}
		c.Printf("graph: %s n=%d m=%d\n", in.Gen, g.N(), g.M())
		c.Printf("true min cut (Stoer–Wagner oracle): %d\n", trueCut)
		c.Printf("distributed estimate: %.1f (first disconnecting sampling level: %d)\n",
			res.Estimate, res.Level)
		c.Printf("cost: %d connectivity runs on one residency, load %d + trials %d rounds\n",
			res.Runs, cl.Metrics().LoadRounds, res.Rounds)
		return nil
	})
}
