// Distribution surface: the hooks a multi-process run needs from the
// algorithm layer. A distributed worker hosts machines [lo, hi) of a
// k-machine cluster behind transport/tcp; it builds the same per-machine
// handler a single-process run would (ConnectivityHandler / MSTHandler
// over its shard views), and ships its hosted machines' designated
// outputs to the coordinator in wire form (AppendOutput / ReadOutput).
// The coordinator reassembles the global result with Assemble /
// AssembleMST over the combined output vector — the exact functions the
// single-process paths use, so the distributed result is bit-identical
// by construction.

package core

import (
	"fmt"
	"sort"

	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/wire"
)

// ConnectivityHandler returns the per-machine connectivity program over
// the given view lookup. cfg must already be resolved (WithDefaults) so
// every participant of a multi-process run agrees on every parameter.
func ConnectivityHandler(view func(id int) GraphView, cfg Config) kmachine.Handler {
	return func(mctx *kmachine.Ctx) error {
		return newMachine(mctx, view(mctx.ID()), cfg).run()
	}
}

// MSTHandler returns the per-machine MST program over the given view
// lookup. cfg must already be resolved (MSTConfig.WithDefaults).
func MSTHandler(view func(id int) GraphView, cfg MSTConfig) kmachine.Handler {
	return func(mctx *kmachine.Ctx) error {
		m := &mstMachine{machine: newMachine(mctx, view(mctx.ID()), cfg.Config), mstCfg: cfg}
		return m.run()
	}
}

// WithDefaults resolves zero-valued fields for an n-vertex input exactly
// as RunMST would.
func (c MSTConfig) WithDefaults(n int) MSTConfig {
	c.Config = c.Config.withDefaults(n)
	if c.MaxElimIters == 0 {
		c.MaxElimIters = DefaultMaxElimIters(n)
	}
	return c
}

// Assemble combines machine outputs into the global connectivity result
// (exported for the distributed coordinator, which gathers Outputs from
// worker processes instead of a local run).
func Assemble(n int, res *kmachine.Result) (*Result, error) { return assemble(n, res) }

// AssembleMST combines machine outputs into the global MST result.
func AssembleMST(n int, res *kmachine.Result) (*MSTResult, error) { return assembleMST(n, res) }

// Output wire tags.
const (
	outputConn = 1
	outputMST  = 2
)

// maxOutputItems bounds decoded collection sizes (a worker output for an
// n-vertex graph never exceeds n entries per collection). checkCount
// also bounds every count by the bytes left in the frame, so a corrupt
// count can never allocate more than the frame itself justifies.
const maxOutputItems = 1 << 28

// AppendOutput encodes one machine's designated output (as produced by
// the connectivity or MST handler) onto b in wire form.
func AppendOutput(b []byte, o any) ([]byte, error) {
	switch mo := o.(type) {
	case *machineOutput:
		b = append(b, outputConn)
		b = appendLabels(b, mo.labels)
		b = wire.AppendVarint(b, mo.failures)
		b = wire.AppendUvarint(b, uint64(mo.phases))
		b = wire.AppendUvarint(b, uint64(mo.collapseIters))
		b = wire.AppendVarint(b, int64(mo.protocolCount))
		b = wire.AppendBool(b, mo.phaseRounds != nil)
		if mo.phaseRounds != nil {
			b = wire.AppendUvarint(b, uint64(len(mo.phaseRounds)))
			for _, r := range mo.phaseRounds {
				b = wire.AppendUvarint(b, uint64(r))
			}
		}
		return b, nil
	case *mstOutput:
		b = append(b, outputMST)
		b = appendLabels(b, mo.labels)
		b = wire.AppendUvarint(b, uint64(len(mo.edges)))
		for _, e := range mo.edges {
			b = appendEdge(b, e)
		}
		b = wire.AppendBool(b, mo.vertexEdges != nil)
		if mo.vertexEdges != nil {
			vs := make([]int, 0, len(mo.vertexEdges))
			for v := range mo.vertexEdges {
				vs = append(vs, v)
			}
			sort.Ints(vs)
			b = wire.AppendUvarint(b, uint64(len(vs)))
			for _, v := range vs {
				b = wire.AppendUvarint(b, uint64(v))
				es := mo.vertexEdges[v]
				b = wire.AppendUvarint(b, uint64(len(es)))
				for _, e := range es {
					b = appendEdge(b, e)
				}
			}
		}
		b = wire.AppendVarint(b, mo.failures)
		b = wire.AppendUvarint(b, uint64(mo.phases))
		b = wire.AppendUvarint(b, uint64(mo.elimIters))
		b = wire.AppendUvarint(b, uint64(mo.weakRounds))
		return b, nil
	default:
		return nil, fmt.Errorf("core: cannot encode output of type %T", o)
	}
}

// ReadOutput decodes a machine output encoded by AppendOutput.
func ReadOutput(r *wire.Reader) (any, error) {
	tag := int(r.Uvarint())
	switch tag {
	case outputConn:
		mo := &machineOutput{}
		var err error
		if mo.labels, err = readLabels(r); err != nil {
			return nil, err
		}
		mo.failures = r.Varint()
		mo.phases = int(r.Uvarint())
		mo.collapseIters = int(r.Uvarint())
		mo.protocolCount = int(r.Varint())
		if r.Bool() {
			cnt := int(r.Uvarint())
			if err := checkCount(r, cnt); err != nil {
				return nil, err
			}
			mo.phaseRounds = make([]int, cnt)
			for i := range mo.phaseRounds {
				mo.phaseRounds[i] = int(r.Uvarint())
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		return mo, nil
	case outputMST:
		mo := &mstOutput{}
		var err error
		if mo.labels, err = readLabels(r); err != nil {
			return nil, err
		}
		cnt := int(r.Uvarint())
		if err := checkCount(r, cnt); err != nil {
			return nil, err
		}
		for i := 0; i < cnt && r.Err() == nil; i++ {
			mo.edges = append(mo.edges, readEdge(r))
		}
		if r.Bool() {
			mo.vertexEdges = make(map[int][]graph.Edge)
			nv := int(r.Uvarint())
			if err := checkCount(r, nv); err != nil {
				return nil, err
			}
			for i := 0; i < nv && r.Err() == nil; i++ {
				v := int(r.Uvarint())
				ne := int(r.Uvarint())
				if err := checkCount(r, ne); err != nil {
					return nil, err
				}
				es := make([]graph.Edge, 0, min(ne, 1024))
				for j := 0; j < ne && r.Err() == nil; j++ {
					es = append(es, readEdge(r))
				}
				mo.vertexEdges[v] = es
			}
		}
		mo.failures = r.Varint()
		mo.phases = int(r.Uvarint())
		mo.elimIters = int(r.Uvarint())
		mo.weakRounds = int(r.Uvarint())
		if r.Err() != nil {
			return nil, r.Err()
		}
		return mo, nil
	default:
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: unknown output tag %d", tag)
	}
}

func appendLabels(b []byte, labels map[int]uint64) []byte {
	vs := make([]int, 0, len(labels))
	for v := range labels {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	b = wire.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = wire.AppendUvarint(b, uint64(v))
		b = wire.AppendUvarint(b, labels[v])
	}
	return b
}

func readLabels(r *wire.Reader) (map[int]uint64, error) {
	cnt := int(r.Uvarint())
	if err := checkCount(r, cnt); err != nil {
		return nil, err
	}
	labels := make(map[int]uint64, min(cnt, 1<<20))
	for i := 0; i < cnt && r.Err() == nil; i++ {
		v := int(r.Uvarint())
		labels[v] = r.Uvarint()
	}
	return labels, r.Err()
}

func appendEdge(b []byte, e graph.Edge) []byte {
	b = wire.AppendUvarint(b, uint64(e.U))
	b = wire.AppendUvarint(b, uint64(e.V))
	b = wire.AppendVarint(b, e.W)
	return b
}

func readEdge(r *wire.Reader) graph.Edge {
	return graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()}
}

func checkCount(r *wire.Reader, n int) error {
	if err := r.Err(); err != nil {
		return err
	}
	// Every item takes at least one byte on the wire.
	if n < 0 || n > maxOutputItems || n > r.Len() {
		return fmt.Errorf("core: output collection size %d out of range", n)
	}
	return nil
}
