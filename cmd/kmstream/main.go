// Command kmstream replays a batched edge-update stream against a
// resident Cluster (ApplyBatch, then an incremental Connectivity query)
// and reports per-batch rounds next to the rounds a fresh static
// Connectivity run costs on the same snapshot, checking every answer
// against the sequential oracle.
//
// Usage:
//
//	kmstream [-gen churn|window|splitmerge] [-n 10000] [-m 30000]
//	         [-batches 10] [-batchsize 300] [-delfrac 0.5] [-window 30000] [-comps 8]
//	         [-static every|first|off] [-oracle] [-k 8] [-seed 1] [-timeout 0]
//
// The default is the acceptance workload: a 10k-vertex graph under 1%
// churn batches, where incremental per-batch rounds must come in
// strictly below the fresh static run.
package main

import (
	"cmp"
	"fmt"
	"io"
	"os"

	"kmgraph"
	"kmgraph/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// oracleCheck compares a query answer against the sequential oracle on
// the snapshot: component count and the full partition.
func oracleCheck(snap *kmgraph.Graph, q *kmgraph.QueryResult) bool {
	labels, count := kmgraph.ComponentsOracle(snap)
	if q.Components != count {
		return false
	}
	min := make(map[uint64]int)
	for v, l := range q.Labels {
		if m, ok := min[l]; !ok || v < m {
			min[l] = v
		}
	}
	for v, l := range q.Labels {
		if min[l] != labels[v] {
			return false
		}
	}
	return true
}

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("kmstream", stdout, stderr)
	fs := c.Flags
	gen := fs.String("gen", "churn", "stream generator: churn|window|splitmerge")
	n := fs.Int("n", 10_000, "vertices")
	m := fs.Int("m", 0, "initial edges (churn; default 3n)")
	batches := fs.Int("batches", 10, "number of update batches")
	batchSize := fs.Int("batchsize", 0, "ops per batch (default 1% of m)")
	delFrac := fs.Float64("delfrac", 0.5, "deletion fraction (churn)")
	window := fs.Int("window", 0, "live-edge window (window; default 3n)")
	comps := fs.Int("comps", 8, "component blocks (splitmerge)")
	static := fs.String("static", "every", "compare against a fresh static run: every|first|off")
	oracle := fs.Bool("oracle", true, "check every query against the sequential oracle")
	return c.Run(args, func() error {
		*m = cmp.Or(*m, 3*(*n))
		*window = cmp.Or(*window, 3*(*n))
		*batchSize = cmp.Or(*batchSize, *m/100)
		var stream *kmgraph.UpdateStream
		switch maxM := *n * (*n - 1) / 2; {
		case *n < 2:
			return cli.Usagef("stream needs more vertices than n=%d", *n)
		case *static != "every" && *static != "first" && *static != "off":
			return cli.Usagef("unknown -static mode %q", *static)
		case *gen == "churn" && (*m < 0 || *m > maxM):
			return cli.Usagef("m=%d out of range for n=%d: want 0 <= m <= n(n-1)/2 = %d", *m, *n, maxM)
		case *gen == "churn":
			stream = kmgraph.RandomChurnStream(*n, *m, *batches, *batchSize, *delFrac, c.Seed)
		case *gen == "window":
			stream = kmgraph.SlidingWindowStream(*n, *window, *batches, *batchSize, c.Seed)
		case *gen == "splitmerge" && (*comps < 2 || *n < 2*(*comps)):
			return cli.Usagef("splitmerge needs 2 <= comps <= n/2 (got comps=%d, n=%d)", *comps, *n)
		case *gen == "splitmerge":
			stream = kmgraph.SplitMergeStream(*n, *comps, *batches, c.Seed)
		default:
			return cli.Usagef("unknown stream generator %q", *gen)
		}

		sess, err := kmgraph.NewCluster(stream.Initial, c.ClusterOptions()...)
		if err != nil {
			return err
		}
		defer sess.Close()

		c.Printf("stream: %s n=%d m0=%d batches=%d; cluster: k=%d B=%d bits/link/round, load %d rounds\n",
			*gen, stream.Initial.N(), stream.Initial.M(), len(stream.Batches), c.K,
			kmgraph.DefaultBandwidth(stream.Initial.N()), sess.Metrics().LoadRounds)

		ctx, cancel := c.Context()
		q, err := sess.Connectivity(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("build-up query: %w", err)
		}
		c.Printf("build-up query: %d rounds, %d phases, %d components\n\n",
			q.Rounds, q.Phases, q.Components)

		c.Printf("%-6s %-5s %-6s %-7s %-7s %-7s %-9s %-6s %-7s %-8s %-7s\n",
			"batch", "ops", "apply", "query", "phases", "dirty", "comps", "edges", "static", "speedup", "oracle")
		snap := stream.Initial
		ok := true
		var sumApply, sumQuery, sumStatic, nStatic int
		for i, ops := range stream.Batches {
			ctx, cancel := c.Context()
			br, err := sess.ApplyBatch(ctx, ops)
			cancel()
			if err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			snap = kmgraph.ApplyOps(snap, ops)
			ctx, cancel = c.Context()
			q, err := sess.Connectivity(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
			sumApply += br.Rounds
			sumQuery += q.Rounds

			staticCell, speedupCell := "-", "-"
			if *static == "every" || (*static == "first" && i == 0) {
				st, err := kmgraph.Connectivity(snap, kmgraph.Config{K: c.K, Seed: c.Seed})
				if err != nil {
					return fmt.Errorf("static run %d: %w", i, err)
				}
				sumStatic += st.Metrics.Rounds
				nStatic++
				staticCell = fmt.Sprintf("%d", st.Metrics.Rounds)
				speedupCell = fmt.Sprintf("%.1fx", float64(st.Metrics.Rounds)/float64(br.Rounds+q.Rounds))
				if q.Components != st.Components {
					ok = false
				}
			}
			oracleCell := "-"
			if *oracle {
				if oracleCheck(snap, q) {
					oracleCell = "ok"
				} else {
					oracleCell = "MISMATCH"
					ok = false
				}
			}
			c.Printf("%-6d %-5d %-6d %-7d %-7d %-7d %-9d %-6d %-7s %-8s %-7s\n",
				i, len(ops), br.Rounds, q.Rounds, q.Phases, q.RelabeledVertices,
				q.Components, snap.M(), staticCell, speedupCell, oracleCell)
		}

		nb := float64(len(stream.Batches))
		c.Printf("\ntotals: apply=%d rounds, query=%d rounds over %d batches (mean %.1f + %.1f per batch)\n",
			sumApply, sumQuery, len(stream.Batches), float64(sumApply)/nb, float64(sumQuery)/nb)
		if nStatic > 0 {
			c.Printf("static: mean %.1f rounds per snapshot; incremental speedup %.1fx\n",
				float64(sumStatic)/float64(nStatic),
				float64(sumStatic)/float64(nStatic)/(float64(sumApply+sumQuery)/nb))
		}
		if !ok {
			return fmt.Errorf("FAILED: query answers diverged from oracle/static results")
		}
		return nil
	})
}
