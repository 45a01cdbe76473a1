package graph

import (
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(2, 1, 7)
	g := b.Build()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) {
		t.Error("missing edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 0) {
		t.Error("phantom edges")
	}
	if w, ok := g.Weight(1, 2); !ok || w != 7 {
		t.Errorf("weight = %d,%v", w, ok)
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("bad degrees")
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("self-loop", func() { NewBuilder(3).AddEdge(1, 1, 1) })
	expectPanic("range", func() { NewBuilder(3).AddEdge(0, 3, 1) })
	expectPanic("dup", func() {
		b := NewBuilder(3)
		b.AddEdge(0, 1, 1)
		b.AddEdge(1, 0, 1)
	})
}

func TestTryAddEdge(t *testing.T) {
	b := NewBuilder(3)
	if !b.TryAddEdge(0, 1, 1) {
		t.Error("first add should succeed")
	}
	if b.TryAddEdge(1, 0, 1) {
		t.Error("duplicate should fail")
	}
	if b.TryAddEdge(2, 2, 1) {
		t.Error("self-loop should fail")
	}
	if b.TryAddEdge(0, 5, 1) {
		t.Error("out of range should fail")
	}
	if b.M() != 1 {
		t.Errorf("m = %d", b.M())
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	f := func(a, b uint16, nn uint16) bool {
		n := int(nn)%1000 + 2
		u, v := int(a)%n, int(b)%n
		if u == v {
			return true
		}
		id := EdgeID(u, v, n)
		gu, gv := DecodeEdgeID(id, n)
		if u > v {
			u, v = v, u
		}
		return gu == u && gv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := GNM(50, 200, 7)
	edges := g.Edges()
	if len(edges) != 200 {
		t.Fatalf("m = %d", len(edges))
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %v not canonical", e)
		}
		if i > 0 {
			p := edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
	}
}

func TestDegreeSum(t *testing.T) {
	g := GNP(200, 0.05, 3)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Errorf("degree sum %d != 2m %d", sum, 2*g.M())
	}
}

func TestFilterAndRemove(t *testing.T) {
	g := Complete(6)
	h := g.Filter(func(e Edge) bool { return e.U == 0 })
	if h.M() != 5 {
		t.Errorf("filtered m = %d, want 5", h.M())
	}
	r := g.RemoveEdges([]Edge{{U: 0, V: 1}, {U: 5, V: 4}})
	if r.M() != g.M()-2 {
		t.Errorf("removed m = %d", r.M())
	}
	if r.HasEdge(0, 1) || r.HasEdge(4, 5) {
		t.Error("edges not removed")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 2, V: 0, W: 9}, {U: 1, V: 3, W: 4}})
	if g.M() != 2 || !g.HasEdge(0, 2) || !g.HasEdge(1, 3) {
		t.Error("FromEdges broken")
	}
	if w, _ := g.Weight(0, 2); w != 9 {
		t.Error("weight lost")
	}
}
