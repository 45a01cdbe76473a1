// Command kmconnect runs the Õ(n/k²) connectivity algorithm (or a
// baseline) on a graph and reports components and cost. The sketch
// algorithm serves the query from a resident Cluster.
//
// Usage:
//
//	kmconnect [-gen gnm|gnp|powerlaw|path|cycle|star|complete|components|planted|bridged]
//	          [-n 4096] [-m 12288] [-p 0.01] [-c 5] [-algo sketch|edgecheck|flooding|referee]
//	          [-k 8] [-seed 1] [-timeout 0] [-trace out.json]
//	kmconnect -store graph.kmgs [-materialize] [-no-oracle] [-k 8] [-seed 1] [-trace out.json]
//	kmconnect -transport tcp -workers host:9601,host:9602 \
//	          (-store graph.kmgs | -gen gnm -n ... -m ...) [-k 8] [-seed 1] [-flight-dump dir/]
//
// The input and distributed flags are shared with the other algorithm
// commands (internal/cli). With -store, the sketch algorithm loads a kmgs
// store (see cmd/kmconvert) or text edge list shard-direct, never
// materializing the graph in this process; -materialize drains it into
// memory first (the E15 baseline), and the baselines always do.
//
// With -transport tcp, this process coordinates the kmworker processes
// in -workers (see cmd/kmworker), each loading its own graph slice from
// the source spec; only the sketch algorithm runs distributed. The
// result and Metrics are bit-identical to a local run on the same
// source: the same store, or the streaming GNM of the same n, m and
// seed, which is the in-memory -gen gnm graph whenever m <= n(n-1)/4
// (denser gnm is refused).
//
// -trace writes the job's phase spans as Chrome trace-event JSON
// (Perfetto, chrome://tracing); under -transport tcp the trace is
// assembled from the spans every worker streams back, one pid per
// worker. -flight-dump dir/ writes each side's flight-recorder snapshot
// (the last rounds of every link) when a distributed run fails.
package main

import (
	"cmp"
	"context"
	"io"
	"os"
	"time"

	"kmgraph"
	"kmgraph/internal/cli"
	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/procstat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("kmconnect", stdout, stderr)
	in := c.Input(cli.Input{N: 4096}, "gen", "n", "m", "p", "c", "store")
	d := c.Dist()
	algo := c.Flags.String("algo", "sketch", "sketch|edgecheck|flooding|referee")
	materialize := c.Flags.Bool("materialize", false, "with -store: drain the store into a full in-memory graph and load via NewCluster (E15 memory baseline)")
	skipOracle := c.Flags.Bool("no-oracle", false, "with -store: skip the streaming union-find oracle pass")
	return c.Run(args, func() error {
		switch *algo {
		case "sketch", "edgecheck", "flooding", "referee":
		default:
			return cli.Usagef("unknown algorithm %q", *algo)
		}
		if *algo != "sketch" || d.TCP() || !in.Stored() {
			if err := c.Reject("applies only to the local sketch run of a -store graph", "materialize", "no-oracle"); err != nil {
				return err
			}
		}
		if *algo != "sketch" && (d.TCP() || d.Trace != "") {
			return cli.Usagef("-algo %s runs locally without phase events (drop -transport tcp and -trace)", *algo)
		}
		switch {
		case d.TCP():
			source, err := in.Spec()
			if err != nil {
				return err
			}
			return d.Run(source, func(ctx context.Context, workers []string, opts dist.CoordOptions) error {
				start := time.Now()
				res, err := dist.RunConnectivityOpts(ctx, workers, source, core.Config{K: c.K, Seed: c.Seed}, opts)
				if err != nil {
					return err
				}
				c.Printf("components: %d\n", res.Components)
				c.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
				c.Printf("cost: %s (wall %v)\n", res.Metrics.String(), time.Since(start).Round(time.Millisecond))
				return nil
			})
		case in.Stored() && *algo == "sketch":
			return runStore(c, in, *materialize, *skipOracle)
		}
		g, err := in.Graph()
		if err != nil {
			return err
		}
		c.Printf("graph: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round\n",
			cmp.Or(in.Store, in.Gen), g.N(), g.M(), c.K, kmgraph.DefaultBandwidth(g.N()))
		_, oracleCount := kmgraph.ComponentsOracle(g)
		switch *algo {
		case "sketch":
			cl, err := kmgraph.NewCluster(g, c.ClusterOptions()...)
			if err != nil {
				return err
			}
			defer cl.Close()
			ctx, cancel := c.Context()
			defer cancel()
			res, err := cl.Connectivity(ctx)
			if err != nil {
				return err
			}
			c.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
			c.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
			c.Printf("cost: load %d rounds (paid once) + query %d rounds\n",
				cl.Metrics().LoadRounds, res.Rounds)
			return c.WriteTrace()
		case "edgecheck":
			res, err := kmgraph.Connectivity(g, kmgraph.Config{K: c.K, Seed: c.Seed, EdgeCheckSelection: true})
			if err != nil {
				return err
			}
			c.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
			c.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
			c.Printf("cost: %s\n", res.Metrics.String())
		default:
			baseline := kmgraph.FloodingConnectivity
			if *algo == "referee" {
				baseline = kmgraph.RefereeConnectivity
			}
			res, err := baseline(g, kmgraph.BaselineConfig{K: c.K, Seed: c.Seed})
			if err != nil {
				return err
			}
			c.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
			c.Printf("cost: %s\n", res.Metrics.String())
		}
		return nil
	})
}

// runStore serves a kmgs store (or text edge list) shard-direct: the
// residency's per-machine shards are filled straight from the stream,
// and the oracle is a one-pass streaming union-find. With materialize
// set it instead drains the store into a full graph and loads via
// NewCluster, the E15 memory baseline; both paths produce bit-identical
// residencies and Metrics.
func runStore(c *cli.Cmd, in *cli.Input, materialize, skipOracle bool) error {
	oracleCount := -1
	if !skipOracle {
		src, closer, err := kmgraph.OpenSource(in.Store)
		if err != nil {
			return err
		}
		oracleCount, err = kmgraph.ComponentsFromSourceOracle(src)
		closer.Close()
		if err != nil {
			return err
		}
	}
	loadStart := time.Now()
	mode := "shard-direct"
	var cl *kmgraph.Cluster
	var err error
	if materialize {
		mode = "materialize-then-load"
		var g *kmgraph.Graph
		if g, err = in.Graph(); err == nil {
			cl, err = kmgraph.NewCluster(g, c.ClusterOptions()...)
		}
	} else {
		cl, err = kmgraph.OpenCluster(in.Store, c.ClusterOptions()...)
	}
	if err != nil {
		return err
	}
	defer cl.Close()
	c.Printf("store: %s n=%d m=%d; cluster: k=%d B=%d bits/link/round (%s load %v)\n", in.Store, cl.N(),
		cl.Metrics().Edges, c.K, kmgraph.DefaultBandwidth(cl.N()), mode, time.Since(loadStart).Round(time.Millisecond))
	c.Printf("after-load peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)

	ctx, cancel := c.Context()
	defer cancel()
	queryStart := time.Now()
	res, err := cl.Connectivity(ctx)
	if err != nil {
		return err
	}
	c.Printf("components: %d (oracle: %d)\n", res.Components, oracleCount)
	c.Printf("phases: %d  sketch failures: %d\n", res.Phases, res.SketchFailures)
	c.Printf("cost: load %d rounds (paid once) + query %d rounds (query wall %v)\n",
		cl.Metrics().LoadRounds, res.Rounds, time.Since(queryStart).Round(time.Millisecond))
	c.Printf("peak RSS: %d MB\n", procstat.MaxRSSBytes()>>20)
	return c.WriteTrace()
}
