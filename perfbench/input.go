package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/sketch"
	"kmgraph/internal/store"
)

// setupRepeats is how many times a workload builds its inputs; setup_s
// is the median, so one slow build does not move it.
const setupRepeats = 4

// size fixes a workload's input graph and machine count.
type size struct {
	n, m, k int
}

// inputSeed is the graph seed of a run's i-th input.
func inputSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// makeGraph is the seeded input of every workload: G(n, m) with a random
// permutation of 1..m as weights, so the MST is unique.
func makeGraph(sz size, seed int64) *graph.Graph {
	return graph.WithDistinctWeights(graph.GNM(sz.n, sz.m, seed), seed+1)
}

// writeInput generates a run's i-th graph and writes it to a kmgs store
// in dir.
func writeInput(dir string, sz size, seed int64, i int) (*graph.Graph, string, error) {
	g := makeGraph(sz, inputSeed(seed, i))
	path := filepath.Join(dir, fmt.Sprintf("graph-%d.kmgs", i))
	if err := store.WriteFile(path, g.Source()); err != nil {
		return nil, "", fmt.Errorf("write store: %w", err)
	}
	return g, path, nil
}

// oracle is the sequential reference answer for one graph.
type oracle struct {
	n      int
	labels []int
	comps  int
	mst    map[uint64]int64 // edge ID -> weight
	weight int64
	took   time.Duration
}

// newOracle runs union-find and Kruskal on g.
func newOracle(g *graph.Graph) *oracle {
	start := time.Now()
	o := &oracle{n: g.N(), mst: map[uint64]int64{}}
	o.labels, o.comps = graph.Components(g)
	forest, total := graph.KruskalMST(g)
	for _, e := range forest {
		o.mst[graph.EdgeID(e.U, e.V, g.N())] = e.W
	}
	o.weight = total
	o.took = time.Since(start)
	return o
}

// labelsOK reports whether labels induce the oracle's partition.
func (o *oracle) labelsOK(labels []uint64) bool {
	if len(labels) != o.n {
		return false
	}
	ls := make([]int, len(labels))
	for i, l := range labels {
		ls[i] = int(l)
	}
	return graph.SameLabeling(o.labels, ls)
}

// mstOK reports whether edges are exactly the oracle's forest.
func (o *oracle) mstOK(edges []graph.Edge, total int64) bool {
	if len(edges) != len(o.mst) || total != o.weight {
		return false
	}
	for _, e := range edges {
		w, ok := o.mst[graph.EdgeID(e.U, e.V, o.n)]
		if !ok || w != e.W {
			return false
		}
	}
	return true
}

func checkConn(r *result, o *oracle, res *core.Result) {
	r.check(res.Components == o.comps && o.labelsOK(res.Labels),
		"connectivity: %d components, oracle %d, or labels differ", res.Components, o.comps)
}

func checkMST(r *result, o *oracle, res *core.MSTResult) {
	r.check(o.mstOK(res.Edges, res.TotalWeight),
		"mst: %d edges weight %d, oracle %d edges weight %d", len(res.Edges), res.TotalWeight, len(o.mst), o.weight)
}

// storeScan times store.Open and one full pass over the store's edges,
// and counts the blocks decoded and checksums verified on the way.
type storeScan struct {
	open, scan   time.Duration
	blocks, crcs int64
}

func scanStore(path string) (storeScan, error) {
	var s storeScan
	before := store.ReadStats()
	start := time.Now()
	r, err := store.Open(path)
	s.open = time.Since(start)
	if err != nil {
		return s, err
	}
	defer r.Close()
	start = time.Now()
	src := r.Source()
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
	}
	s.scan = time.Since(start)
	after := store.ReadStats()
	s.blocks = after.BlocksDecoded - before.BlocksDecoded
	s.crcs = after.CRCVerifications - before.CRCVerifications
	return s, nil
}

// sketchReplay replays phase 0's sketch work on a workload's shards,
// outside the engine: every vertex starts as its own part, so each
// machine builds and encodes one sketch per owned vertex
// (Pool.Get / AddVertex / EncodeTo) and each proxy folds one encoded part
// into a fresh sum (AddEncoded). It measures the sketch layer alone; the
// messages between the two steps are not simulated.
type sketchReplay struct {
	build, fold time.Duration
	encoded     int64
	alloc       uint64
}

func replaySketch(part *kmachine.ShardPartition, seed uint64) (sketchReplay, error) {
	var out sketchReplay
	pool := sketch.NewPool(sketch.DefaultParams(part.N()))
	defer pool.Release()
	each := func(fn func(b []byte) error) error {
		sk := pool.Get(seed)
		defer pool.Put(sk)
		var scratch []byte
		for i := 0; i < part.K(); i++ {
			v := part.View(i)
			for _, u := range v.Owned() {
				sk.AddVertex(u, v.Adj(u), nil)
				scratch = sk.EncodeTo(scratch[:0])
				sk.Reset()
				if err := fn(scratch); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	start := time.Now()
	if err := each(func(b []byte) error { out.encoded += int64(len(b)); return nil }); err != nil {
		return out, err
	}
	out.build = time.Since(start)
	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - allocBefore

	// Keep the encoded parts (untimed), then fold each into a sum.
	arena := make([]byte, 0, out.encoded)
	var ends []int
	if err := each(func(b []byte) error { arena = append(arena, b...); ends = append(ends, len(arena)); return nil }); err != nil {
		return out, err
	}
	runtime.ReadMemStats(&ms)
	allocBefore = ms.TotalAlloc
	start = time.Now()
	prev := 0
	for _, end := range ends {
		sum := pool.Get(seed)
		err := sum.AddEncoded(arena[prev:end])
		pool.Put(sum)
		if err != nil {
			return out, fmt.Errorf("sketch fold: %w", err)
		}
		prev = end
	}
	out.fold = time.Since(start)
	runtime.ReadMemStats(&ms)
	out.alloc += ms.TotalAlloc - allocBefore
	return out, nil
}

// probeLayers measures, outside any job, the layers every workload
// shares: a store open and full scan, one timed shard load, and the
// phase-0 sketch replay on those shards.
func probeLayers(r *result, path string, k int, seed int64) error {
	sc, err := scanStore(path)
	if err != nil {
		return fmt.Errorf("store scan: %w", err)
	}
	r.setLayer("store.open_s", "s", secs(sc.open))
	r.setLayer("store.scan_s", "s", secs(sc.scan))
	if _, ok := r.layer["store.blocks_decoded"]; !ok {
		// No job of this workload opens the store: count one full scan.
		r.setLayer("store.blocks_decoded", "count", float64(sc.blocks))
		r.setLayer("store.crc_checks", "count", float64(sc.crcs))
	}

	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	start := time.Now()
	part, err := kmachine.LoadShards(rd.Source(), k, uint64(seed)^rvpSalt)
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("load shards: %w", err)
	}
	runtime.ReadMemStats(&ms)
	r.setLayer("kmachine.load_s", "s", secs(took))
	r.setLayer("kmachine.load_alloc_bytes", "bytes", float64(ms.TotalAlloc-allocBefore))

	sk, err := replaySketch(part, uint64(seed))
	if err != nil {
		return err
	}
	r.setLayer("sketch.build_s", "s", secs(sk.build))
	r.setLayer("sketch.fold_s", "s", secs(sk.fold))
	r.setLayer("sketch.encoded_bytes", "bytes", float64(sk.encoded))
	r.setLayer("sketch.alloc_bytes", "bytes", float64(sk.alloc))
	return nil
}
