// Command kmmst runs the Õ(n/k²) MST algorithm (Theorem 2) via a
// resident Cluster and reports cost under either output criterion;
// -timeout bounds the job.
//
// Usage:
//
//	kmmst [-n 2048] [-m 6144] [-strong] [-rep] [-k 8] [-seed 1] [-timeout 0] [-trace out.json]
//	kmmst -store graph.kmgs [-strong] [-k 8] [-seed 1] [-trace out.json]
//	kmmst -transport tcp -workers host:9601,host:9602 -store graph.kmgs
//	      [-strong] [-k 8] [-seed 1] [-trace out.json] [-flight-dump dir/]
//
// The generated graph is G(n, m) with distinct random weights, checked
// against the sequential oracle; -rep runs the random edge partition
// model on it instead of the resident engine. A -store graph keeps its
// own weights and is served shard-direct without an oracle check, and
// under -transport tcp (coordinating the -workers fleet, see
// cmd/kmconnect for -trace and -flight-dump) the result and Metrics are
// bit-identical to the local -store run.
package main

import (
	"context"
	"io"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/cli"
	"kmgraph/internal/core"
	"kmgraph/internal/dist"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("kmmst", stdout, stderr)
	in := c.Input(cli.Input{N: 2048, Weighted: true}, "n", "m", "store")
	d := c.Dist()
	strong := c.Flags.Bool("strong", false, "strong output criterion (both endpoints)")
	repMode := c.Flags.Bool("rep", false, "use the random edge partition model instead")
	return c.Run(args, func() error {
		if *repMode && (in.Stored() || d.TCP() || d.Trace != "") {
			return cli.Usagef("-rep runs a generated graph locally without the resident engine (drop -store, -transport tcp and -trace)")
		}
		if d.TCP() {
			source, err := in.Spec()
			if err != nil {
				return err
			}
			return d.Run(source, func(ctx context.Context, workers []string, opts dist.CoordOptions) error {
				start := time.Now()
				cfg := core.MSTConfig{Config: core.Config{K: c.K, Seed: c.Seed}, StrongOutput: *strong}
				res, err := dist.RunMSTOpts(ctx, workers, source, cfg, opts)
				if err != nil {
					return err
				}
				c.Printf("MST: weight=%d edges=%d\n", res.TotalWeight, len(res.Edges))
				c.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
					res.Phases, res.ElimIters, res.SketchFailures)
				c.Printf("cost: %s (wall %v)\n", res.Metrics.String(), time.Since(start).Round(time.Millisecond))
				return nil
			})
		}

		var cl *kmgraph.Cluster
		var oracleWeight int64
		if in.Stored() {
			var err error
			if cl, err = kmgraph.OpenCluster(in.Store, c.ClusterOptions()...); err != nil {
				return err
			}
			c.Printf("store: %s n=%d m=%d (shard-direct; oracle skipped)\n", in.Store, cl.N(), cl.Metrics().Edges)
		} else {
			g, err := in.Graph()
			if err != nil {
				return err
			}
			_, oracleWeight = kmgraph.MSTOracle(g)
			c.Printf("graph: n=%d m=%d distinct weights; oracle MST weight %d\n", g.N(), g.M(), oracleWeight)
			if *repMode {
				res, err := kmgraph.REPMST(g, kmgraph.REPConfig{K: c.K, Seed: c.Seed})
				if err != nil {
					return err
				}
				c.Printf("REP MST: weight=%d edges=%d (match: %v)\n",
					res.TotalWeight, len(res.Edges), res.TotalWeight == oracleWeight)
				c.Printf("cost: conversion %d + MST %d = %d rounds (Θ̃(n/k) model)\n",
					res.ConversionRounds, res.MSTRounds, res.TotalRounds)
				return nil
			}
			if cl, err = kmgraph.NewCluster(g, c.ClusterOptions()...); err != nil {
				return err
			}
		}
		defer cl.Close()
		ctx, cancel := c.Context()
		defer cancel()
		var opts []kmgraph.MSTOption
		if *strong {
			opts = append(opts, kmgraph.StrongOutput())
		}
		res, err := cl.MST(ctx, opts...)
		if err != nil {
			return err
		}
		met := cl.Metrics()
		if in.Stored() {
			c.Printf("MST: weight=%d edges=%d\n", res.TotalWeight, len(res.Edges))
			c.Printf("cost: load %d rounds (paid once) + MST %d rounds\n", met.LoadRounds, res.Metrics.Rounds)
			return c.WriteTrace()
		}
		c.Printf("MST: weight=%d edges=%d (match: %v)\n",
			res.TotalWeight, len(res.Edges), res.TotalWeight == oracleWeight)
		c.Printf("phases: %d  elimination iterations: %d  sketch failures: %d\n",
			res.Phases, res.ElimIters, res.SketchFailures)
		if *strong {
			c.Printf("cost: load %d + weak %d + dissemination %d rounds\n",
				met.LoadRounds, res.WeakRounds, res.Metrics.Rounds-res.WeakRounds)
		} else {
			c.Printf("cost: load %d rounds (paid once) + MST %d rounds\n", met.LoadRounds, res.Metrics.Rounds)
		}
		return c.WriteTrace()
	})
}
