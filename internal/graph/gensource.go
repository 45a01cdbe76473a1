package graph

import (
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Streaming generator sources: deterministic random-graph generators
// that implement EdgeSource without ever materializing a Graph, so
// cmd/kmconvert can write million-vertex stores whose peak memory is the
// dedup set (one uint64 per edge), not the adjacency. They share the
// models of the Builder-based generators but not always the sample:
// StreamGNM draws exactly the edges of the in-memory GNM with the same
// seed while m <= n(n-1)/4, and a different — equally valid — graph
// above it, where GNM samples the complement instead. The other streams
// (RMAT, power-law) are distinct samples altogether.
//
// Each source replays exactly the same edge sequence after Reset (the
// RNG is re-seeded and the dedup set rebuilt), which is what the
// two-pass shard loaders and the store writer require.

// gnmSource streams a uniform G(n, m) sample: endpoint pairs drawn
// uniformly, self-loops and duplicates rejected.
type gnmSource struct {
	n, m int
	seed int64
	rng  *rand.Rand
	seen map[uint64]struct{}
	emit int
}

// StreamGNM returns an EdgeSource streaming a uniform random graph with
// exactly m edges over n vertices (all weights 1). It panics if m
// exceeds n(n-1)/2; densities above ~half the complete graph converge
// slowly and belong in the in-memory GNM.
func StreamGNM(n, m int, seed int64) EdgeSource {
	maxM := n * (n - 1) / 2
	if m < 0 || m > maxM {
		panic(fmt.Sprintf("graph: StreamGNM m=%d out of range for n=%d", m, n))
	}
	s := &gnmSource{n: n, m: m, seed: seed}
	s.Reset()
	return s
}

func (s *gnmSource) N() int { return s.n }

func (s *gnmSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.seen = make(map[uint64]struct{}, s.m)
	s.emit = 0
	return nil
}

func (s *gnmSource) Next() (Edge, error) {
	if s.emit >= s.m {
		return Edge{}, io.EOF
	}
	for {
		u, v := s.rng.Intn(s.n), s.rng.Intn(s.n)
		if u == v {
			continue
		}
		id := EdgeID(u, v, s.n)
		if _, dup := s.seen[id]; dup {
			continue
		}
		s.seen[id] = struct{}{}
		s.emit++
		if u > v {
			u, v = v, u
		}
		return Edge{U: u, V: v, W: 1}, nil
	}
}

// rmatSource streams an R-MAT sample (Chakrabarti, Zhan & Faloutsos):
// each edge picks a quadrant of the adjacency matrix recursively with
// probabilities (a, b, c, d), yielding the skewed-degree, community-ish
// structure of web and social graphs at scale.
type rmatSource struct {
	n, m       int
	levels     uint
	a, ab, abc float64
	seed       int64
	rng        *rand.Rand
	seen       map[uint64]struct{}
	emit       int
}

// StreamRMAT returns an EdgeSource streaming an R-MAT graph with m
// distinct edges over n vertices (weights 1), with the standard
// partition probabilities a=0.57, b=0.19, c=0.19, d=0.05. Coordinates
// are drawn in the enclosing power-of-two square and rejected when they
// fall outside [0, n).
func StreamRMAT(n, m int, seed int64) EdgeSource {
	if n < 2 || m < 0 {
		panic(fmt.Sprintf("graph: StreamRMAT needs n >= 2, m >= 0 (got n=%d m=%d)", n, m))
	}
	levels := uint(0)
	for s := 1; s < n; s <<= 1 {
		levels++
	}
	s := &rmatSource{n: n, m: m, levels: levels, a: 0.57, ab: 0.76, abc: 0.95, seed: seed}
	s.Reset()
	return s
}

func (s *rmatSource) N() int { return s.n }

func (s *rmatSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.seen = make(map[uint64]struct{}, s.m)
	s.emit = 0
	return nil
}

func (s *rmatSource) Next() (Edge, error) {
	if s.emit >= s.m {
		return Edge{}, io.EOF
	}
	for {
		u, v := 0, 0
		for l := uint(0); l < s.levels; l++ {
			r := s.rng.Float64()
			switch {
			case r < s.a: // top-left
			case r < s.ab: // top-right
				v |= 1 << l
			case r < s.abc: // bottom-left
				u |= 1 << l
			default: // bottom-right
				u |= 1 << l
				v |= 1 << l
			}
		}
		if u == v || u >= s.n || v >= s.n {
			continue
		}
		id := EdgeID(u, v, s.n)
		if _, dup := s.seen[id]; dup {
			continue
		}
		s.seen[id] = struct{}{}
		s.emit++
		if u > v {
			u, v = v, u
		}
		return Edge{U: u, V: v, W: 1}, nil
	}
}

// powerLawSource streams a Chung–Lu-style power-law graph: endpoints are
// drawn independently proportional to weights w_i ∝ i^(-1/(gamma-1)),
// giving a degree distribution with exponent gamma — the web-graph
// workload of the paper's introduction, at converter scale.
type powerLawSource struct {
	n, m int
	cum  []float64 // cumulative endpoint weights, cum[n-1] == total
	seed int64
	rng  *rand.Rand
	seen map[uint64]struct{}
	emit int
}

// StreamPowerLaw returns an EdgeSource streaming a power-law graph with
// m distinct edges over n vertices (weights 1), degree exponent gamma
// (> 2). Unlike ChungLu it fixes the edge count exactly; the expected
// degree sequence follows the same w_i ∝ (i+1)^(-1/(gamma-1)) law.
func StreamPowerLaw(n, m int, gamma float64, seed int64) EdgeSource {
	if gamma <= 2 {
		panic("graph: StreamPowerLaw needs gamma > 2")
	}
	if n < 2 || m < 0 {
		panic(fmt.Sprintf("graph: StreamPowerLaw needs n >= 2, m >= 0 (got n=%d m=%d)", n, m))
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -1/(gamma-1))
		cum[i] = total
	}
	s := &powerLawSource{n: n, m: m, cum: cum, seed: seed}
	s.Reset()
	return s
}

func (s *powerLawSource) N() int { return s.n }

func (s *powerLawSource) Reset() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.seen = make(map[uint64]struct{}, s.m)
	s.emit = 0
	return nil
}

// draw samples a vertex proportional to its power-law weight by binary
// search over the cumulative table.
func (s *powerLawSource) draw() int {
	x := s.rng.Float64() * s.cum[s.n-1]
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (s *powerLawSource) Next() (Edge, error) {
	if s.emit >= s.m {
		return Edge{}, io.EOF
	}
	for {
		u, v := s.draw(), s.draw()
		if u == v {
			continue
		}
		id := EdgeID(u, v, s.n)
		if _, dup := s.seen[id]; dup {
			continue
		}
		s.seen[id] = struct{}{}
		s.emit++
		if u > v {
			u, v = v, u
		}
		return Edge{U: u, V: v, W: 1}, nil
	}
}
