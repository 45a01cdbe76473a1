// Package graph provides the input-graph substrate for the k-machine
// reproduction: an immutable undirected graph type, a builder, seeded
// generator families for every workload the experiments use, and
// sequential "oracle" algorithms (connected components, minimum spanning
// tree, minimum cut, bipartiteness, ...) that supply ground truth for the
// distributed algorithms under test.
//
// Vertices are integers 0..N-1 (the paper's ID space [n]). Edges are
// undirected, stored canonically with U < V, and may carry int64 weights.
// Edge identifiers pack the canonical endpoints as U*N + V, matching the
// coordinate space of the sketch incidence vectors (§2.3).
package graph

import (
	"fmt"
	"sort"
)

// Half is one directed half of an undirected edge, as seen from its origin.
type Half struct {
	To int
	W  int64
}

// Edge is a canonical undirected edge (U < V) with weight W.
type Edge struct {
	U, V int
	W    int64
}

// Canon returns e with endpoints swapped if necessary so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is an immutable undirected graph with N vertices.
type Graph struct {
	n   int
	m   int
	adj [][]Half
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Adj returns the adjacency list of v. The caller must not modify it.
func (g *Graph) Adj(v int) []Half { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns all edges in canonical form, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				out = append(out, Edge{U: u, V: h.To, W: h.W})
			}
		}
	}
	return out
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// Weight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) Weight(u, v int) (int64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// EdgeID packs the canonical endpoints of {u, v} in an n-vertex graph into
// the coordinate id u'*n + v' (u' < v') used by the sketch incidence
// vectors.
func EdgeID(u, v, n int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(n) + uint64(v)
}

// DecodeEdgeID is the inverse of EdgeID.
func DecodeEdgeID(id uint64, n int) (u, v int) {
	return int(id / uint64(n)), int(id % uint64(n))
}

// Builder accumulates edges and produces an immutable Graph. Self-loops
// and duplicate edges are rejected.
type Builder struct {
	n     int
	edges map[uint64]int64
}

// NewBuilder returns a builder for an n-vertex graph.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, edges: make(map[uint64]int64)}
}

// N returns the vertex count of the graph under construction.
func (b *Builder) N() int { return b.n }

// Has reports whether {u, v} has already been added.
func (b *Builder) Has(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	_, ok := b.edges[EdgeID(u, v, b.n)]
	return ok
}

// AddEdge adds the weighted edge {u, v}. It panics on self-loops,
// out-of-range endpoints, or duplicates: generators are expected to be
// correct, and a silent skip would corrupt edge-count invariants.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	id := EdgeID(u, v, b.n)
	if _, dup := b.edges[id]; dup {
		panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", u, v))
	}
	b.edges[id] = w
}

// TryAddEdge adds {u, v} unless it is a self-loop or duplicate, reporting
// whether the edge was added. Used by randomized generators.
func (b *Builder) TryAddEdge(u, v int, w int64) bool {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return false
	}
	id := EdgeID(u, v, b.n)
	if _, dup := b.edges[id]; dup {
		return false
	}
	b.edges[id] = w
	return true
}

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.edges) }

// Build produces the immutable graph. Adjacency lists are sorted by
// neighbor ID so iteration order is deterministic.
//
// Degrees are counted first and all 2m half-edges are carved from one
// exactly-sized arena — one allocation instead of n, no append
// re-slicing, no per-slice allocator slack — which is what keeps the
// in-memory build's peak footprint close to the theoretical 16 bytes
// per half-edge.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, m: len(b.edges), adj: make([][]Half, b.n)}
	deg := make([]int, b.n)
	for id := range b.edges {
		u, v := DecodeEdgeID(id, b.n)
		deg[u]++
		deg[v]++
	}
	arena := make([]Half, 2*len(b.edges))
	off := 0
	cur := make([]int, b.n)
	for v := range g.adj {
		if deg[v] == 0 {
			continue
		}
		g.adj[v] = arena[off : off+deg[v] : off+deg[v]]
		cur[v] = off
		off += deg[v]
	}
	for id, w := range b.edges {
		u, v := DecodeEdgeID(id, b.n)
		arena[cur[u]] = Half{To: v, W: w}
		cur[u]++
		arena[cur[v]] = Half{To: u, W: w}
		cur[v]++
	}
	for v := range g.adj {
		a := g.adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
	}
	return g
}

// FromEdges builds a graph directly from a canonical edge list. Unlike
// the Builder it never holds a dedup map: degrees are counted from the
// slice, half-edges are placed into one exactly-sized arena, and
// duplicates are caught by the post-sort adjacency scan — so peak
// memory is the output graph itself. It panics on self-loops,
// out-of-range endpoints, or duplicates, like Builder.AddEdge.
func FromEdges(n int, edges []Edge) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, m: len(edges), adj: make([][]Half, n)}
	deg := make([]int, n)
	for _, e := range edges {
		e = e.Canon()
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at %d", e.U))
		}
		if e.U < 0 || e.V >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		deg[e.U]++
		deg[e.V]++
	}
	arena := make([]Half, 2*len(edges))
	off := 0
	cur := make([]int, n)
	for v := 0; v < n; v++ {
		if deg[v] == 0 {
			continue
		}
		g.adj[v] = arena[off : off+deg[v] : off+deg[v]]
		cur[v] = off
		off += deg[v]
	}
	for _, e := range edges {
		e = e.Canon()
		arena[cur[e.U]] = Half{To: e.V, W: e.W}
		cur[e.U]++
		arena[cur[e.V]] = Half{To: e.U, W: e.W}
		cur[e.V]++
	}
	for v := range g.adj {
		a := g.adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
		for i := 1; i < len(a); i++ {
			if a[i].To == a[i-1].To {
				panic(fmt.Sprintf("graph: duplicate edge (%d,%d)", v, a[i].To))
			}
		}
	}
	return g
}

// Filter returns the subgraph of g keeping exactly the edges for which
// keep returns true. The vertex set is unchanged.
func (g *Graph) Filter(keep func(Edge) bool) *Graph {
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				e := Edge{U: u, V: h.To, W: h.W}
				if keep(e) {
					b.AddEdge(e.U, e.V, e.W)
				}
			}
		}
	}
	return b.Build()
}

// RemoveEdges returns g minus the given edges (matched by endpoints).
func (g *Graph) RemoveEdges(remove []Edge) *Graph {
	del := make(map[uint64]bool, len(remove))
	for _, e := range remove {
		e = e.Canon()
		del[EdgeID(e.U, e.V, g.n)] = true
	}
	return g.Filter(func(e Edge) bool { return !del[EdgeID(e.U, e.V, g.n)] })
}
