package resident

import (
	"fmt"
	"sort"

	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/proxy"
	"kmgraph/internal/sketch"
	"kmgraph/internal/wire"
)

// Host command kinds. Command arrival is control plane and free; command
// *contents* that are data (batch ops) enter only at machine 0 and are
// distributed in-model at metered cost. Run/MST specs are public problem
// statements (local knowledge), so they ride the control plane.
const (
	cmdApply = iota
	cmdQuery
	cmdRun
	cmdMST
	cmdClose
)

// hostCmd is a control-plane command.
//
// wake is the determinism gate: each machine unparks and acks, then blocks
// on wake until the host has seen all k acks. This guarantees every
// machine has re-entered the round barrier before any machine steps, so
// barrier grouping — and therefore per-command round counts — cannot
// depend on goroutine scheduling.
type hostCmd struct {
	kind int
	seq  int            // job sequence number (observer events)
	name string         // job family name (observer events)
	ops  []graph.EdgeOp // cmdApply: machine 0 (ingress) only
	spec *runSpec       // cmdRun
	mst  *mstSpec       // cmdMST
	wake chan struct{}
}

type mstSpec struct {
	strong bool
}

// reply is one machine's out-of-band result for one command — the model's
// designated output variables o_i, read between commands.
type reply struct {
	id     int
	rounds int
	// batch
	applied    int
	appliedIns int
	appliedDel int
	rejIns     int
	rejDel     int
	// query / run / mst
	labels        map[int]uint64
	components    int
	forest        []graph.Edge
	phases        int
	failures      int64
	collapseIters int
	relabeled     int
	certEdges     int
	mergeEdges    int
	converged     bool
	cancelled     bool
	// run
	probePresent bool
	// mst
	mstEdges    []graph.Edge
	vertexEdges map[int][]graph.Edge
	elimIters   int
	weakRounds  int
}

// rmachine is one machine's resident state for the lifetime of the
// engine: the shared merge engine (labels, proxy states), the mutable
// adjacency view, the maintained sketch banks, and — on machine 0 — the
// certificate coordinator. The machine executes host commands in SPMD
// style.
type rmachine struct {
	e      *Engine
	ctx    *kmachine.Ctx
	mg     *core.Merger
	view   *dynView
	banks  *bankCache
	coord  *coordinator // machine 0 only
	ccfg   core.Config
	banksN int

	// globalPhase never repeats within a session, so proxy assignments and
	// DRR ranks stay fresh across jobs (the paper's h_{j,ρ} freshness).
	globalPhase int
	mergeRecs   []graph.Edge
}

func (m *rmachine) loop() error {
	if err := m.mg.Setup(); err != nil {
		return err
	}
	m.mg.Cancelled = m.e.jobCancelled
	seeds := make([]uint64, m.banksN)
	for b := range seeds {
		seeds[b] = m.mg.Sh.BankSeed(b)
	}
	m.banks = newBankCache(m.ccfg.Sketch, seeds)
	m.mg.OnRelabel = func(relabel map[uint64]uint64) {
		m.banks.mergeRelabel(relabel, m.mg.Parts())
	}
	if m.ctx.ID() == 0 {
		m.coord = newCoordinator(m.view.n)
	}
	m.reply(reply{}) // ready: load done, rounds carried in the reply

	for {
		// Park while idling on the host: the round barrier proceeds
		// without this machine, so peers still draining deliveries are
		// never stalled. The ack/wake handshake then holds every machine
		// back until all have unparked, keeping barrier grouping — and so
		// round accounting — deterministic.
		m.ctx.Park()
		cmd := <-m.e.cmds[m.ctx.ID()]
		m.ctx.Unpark()
		m.e.ackCh <- m.ctx.ID()
		<-cmd.wake
		switch cmd.kind {
		case cmdApply:
			m.applyBatch(cmd.ops)
		case cmdQuery:
			m.query(cmd)
		case cmdRun:
			m.runDerived(cmd)
		case cmdMST:
			m.runMST(cmd)
		case cmdClose:
			m.mg.ReleasePools()
			m.ctx.SetOutput(&struct{}{})
			return nil
		default:
			return fmt.Errorf("resident: unknown command %d", cmd.kind)
		}
	}
}

func (m *rmachine) reply(r reply) {
	r.id = m.ctx.ID()
	r.rounds = m.ctx.Round()
	m.e.replyCh <- r
}

// phaseEvent emits an observer event from machine 0 (free host-side
// observability, between metered rounds). With Config.PhaseMetrics the
// event carries a deep cluster-metrics snapshot, served by the
// coordinator out-of-band (snapshot requests ride the event channel but
// are not barrier events, so fetching one mid-run cannot wedge the
// round loop or change any metered quantity).
func (m *rmachine) phaseEvent(cmd hostCmd, phase int, active, failures uint64) {
	if m.ctx.ID() != 0 || m.e.cfg.Observer == nil {
		return
	}
	ev := Event{
		Job: cmd.name, Seq: cmd.seq, Phase: phase,
		Round: m.ctx.Round(), Active: active, Failures: failures,
	}
	if m.e.cfg.PhaseMetrics {
		if met, ok := m.e.kc.Snapshot(); ok {
			ev.Snap = &met
		}
	}
	m.e.notify(ev)
}

// applyBatch distributes a batch from the ingress to the endpoints' home
// machines, applies it against the live adjacency and maintained banks,
// and collects per-op accept/reject verdicts back at machine 0 (which
// folds accepted ops into the certificate). Ops arrive canonicalized
// (U < V); the home of U is the primary, responsible for the verdict.
func (m *rmachine) applyBatch(ops []graph.EdgeOp) {
	k := m.ctx.K()

	// Exchange 1: ingress routes each op to both endpoints' homes.
	var out []proxy.Out
	if m.ctx.ID() == 0 {
		bufs := make([][]byte, k)
		counts := make([]int, k)
		addTo := func(dst, idx int, op graph.EdgeOp) {
			b := bufs[dst]
			b = wire.AppendUvarint(b, uint64(idx))
			b = wire.AppendBool(b, op.Del)
			b = wire.AppendUvarint(b, uint64(op.U))
			b = wire.AppendUvarint(b, uint64(op.V))
			b = wire.AppendVarint(b, op.W)
			bufs[dst] = b
			counts[dst]++
		}
		for i, op := range ops {
			hu, hv := m.view.Home(op.U), m.view.Home(op.V)
			addTo(hu, i, op)
			if hv != hu {
				addTo(hv, i, op)
			}
		}
		a := m.mg.Comm.Arena()
		for d := 0; d < k; d++ {
			if counts[d] == 0 {
				continue
			}
			data := a.Grab(10 + len(bufs[d]))
			data = wire.AppendUvarint(data, uint64(counts[d]))
			data = append(data, bufs[d]...)
			out = append(out, proxy.Out{Dst: d, Data: a.Commit(data)})
		}
	}
	recv := m.mg.Comm.Exchange(out)

	// Apply my ops in batch order; primaries record verdicts.
	type rop struct {
		idx  int
		del  bool
		u, v int
		w    int64
	}
	var mine []rop
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		cnt := int(r.Uvarint())
		for i := 0; i < cnt; i++ {
			mine = append(mine, rop{
				idx: int(r.Uvarint()),
				del: r.Bool(),
				u:   int(r.Uvarint()),
				v:   int(r.Uvarint()),
				w:   r.Varint(),
			})
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].idx < mine[j].idx })
	var verdicts []byte
	nv := 0
	for _, op := range mine {
		acc := m.applyOp(op.del, op.u, op.v, op.w)
		if m.view.Home(op.u) == m.ctx.ID() {
			verdicts = wire.AppendUvarint(verdicts, uint64(op.idx))
			verdicts = wire.AppendBool(verdicts, acc)
			nv++
		}
	}

	// Exchange 2: verdicts to the ingress.
	out = nil
	if nv > 0 {
		a := m.mg.Comm.Arena()
		data := a.Grab(10 + len(verdicts))
		data = wire.AppendUvarint(data, uint64(nv))
		data = append(data, verdicts...)
		out = append(out, proxy.Out{Dst: 0, Data: a.Commit(data)})
	}
	recv = m.mg.Comm.Exchange(out)
	rep := reply{}
	if m.ctx.ID() == 0 {
		acc := make([]bool, len(ops))
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			cnt := int(r.Uvarint())
			for i := 0; i < cnt; i++ {
				idx := int(r.Uvarint())
				a := r.Bool()
				if idx < len(acc) {
					acc[idx] = a
				}
			}
		}
		for i, op := range ops {
			if !acc[i] {
				if op.Del {
					rep.rejDel++
				} else {
					rep.rejIns++
				}
				continue
			}
			rep.applied++
			if op.Del {
				rep.appliedDel++
			} else {
				rep.appliedIns++
			}
			m.coord.applyAccepted(op)
		}
	}
	m.reply(rep)
}

// applyOp mutates the live adjacency and the maintained banks for the
// endpoints this machine owns. Both endpoint homes see identical prior
// state for the edge, so their accept decisions agree. Sign convention
// follows a_u (§2.3): +1 for the smaller endpoint's incidence, negated on
// deletion.
func (m *rmachine) applyOp(del bool, u, v int, w int64) bool {
	id := graph.EdgeID(u, v, m.view.n)
	me := m.ctx.ID()
	ownU := m.view.Home(u) == me
	ownV := m.view.Home(v) == me
	var present bool
	if ownU {
		present = m.view.has(u, v)
	} else {
		present = m.view.has(v, u)
	}
	if del {
		if !present {
			return false
		}
		if ownU {
			m.view.remove(u, v)
			m.banks.update(m.mg.Labels[u], id, -1)
		}
		if ownV {
			m.view.remove(v, u)
			m.banks.update(m.mg.Labels[v], id, +1)
		}
		return true
	}
	if present {
		return false
	}
	if ownU {
		m.view.insert(u, graph.Half{To: v, W: w})
		m.banks.update(m.mg.Labels[u], id, +1)
	}
	if ownV {
		m.view.insert(v, graph.Half{To: u, W: w})
		m.banks.update(m.mg.Labels[v], id, -1)
	}
	return true
}

// query answers connectivity on the current graph: certificate piece
// relabel (only changed labels travel), Boruvka merge phases over the
// maintained banks via the shared engine, and a final sync that returns
// fresh forest edges and label changes to the coordinator. A cancelled
// query breaks at a phase boundary but still runs the final sync, so the
// coordinator's certificate stays consistent with the machines' labels.
func (m *rmachine) query(cmd hostCmd) {
	startFail := m.mg.Failures
	startCollapse := m.mg.CollapseIters
	rep := reply{}

	// Step 1: certificate piece relabel.
	var out []proxy.Out
	if m.ctx.ID() == 0 {
		changes, cert := m.coord.recompute()
		rep.relabeled = len(changes)
		rep.certEdges = cert
		k := m.ctx.K()
		bufs := make([][]byte, k)
		counts := make([]int, k)
		for _, ch := range changes {
			d := m.view.Home(ch.v)
			bufs[d] = wire.AppendUvarint(bufs[d], uint64(ch.v))
			bufs[d] = wire.AppendUvarint(bufs[d], ch.label)
			counts[d]++
		}
		a := m.mg.Comm.Arena()
		for d := 0; d < k; d++ {
			if counts[d] == 0 {
				continue
			}
			data := a.Grab(10 + len(bufs[d]))
			data = wire.AppendUvarint(data, uint64(counts[d]))
			data = append(data, bufs[d]...)
			out = append(out, proxy.Out{Dst: d, Data: a.Commit(data)})
		}
	}
	recv := m.mg.Comm.Exchange(out)
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		cnt := int(r.Uvarint())
		for i := 0; i < cnt; i++ {
			v := int(r.Uvarint())
			l := r.Uvarint()
			m.banks.drop(m.mg.Labels[v])
			m.banks.drop(l)
			m.mg.Labels[v] = l
		}
	}
	m.banks.retain(m.mg.Parts())

	// Step 2: Boruvka merge phases from the piece labeling.
	pre := make(map[int]uint64, len(m.mg.Labels))
	for v, l := range m.mg.Labels {
		pre[v] = l
	}
	m.mergeRecs = m.mergeRecs[:0]
	phases := 0
	converged := false
	cancelled := false
	for phases < m.ccfg.MaxPhases {
		m.mg.Phase = m.globalPhase
		m.mg.StateSlot = 0
		m.mg.PhaseActive = 0
		m.selectBanks(phases % m.banksN)
		m.mg.Collapse()
		m.mg.BroadcastAndRelabel()
		active, failures, cancel := m.mg.PhaseSync()
		m.globalPhase++
		phases++
		m.phaseEvent(cmd, phases-1, active, failures)
		if cancel {
			cancelled = true
			break
		}
		if active == 0 && failures == 0 {
			converged = true
			break
		}
	}

	// Step 3: final sync — Boruvka label changes and sampled merge edges
	// flow to the coordinator, which grows the forest and counts
	// components over its resident labeling.
	var chg []byte
	nc := 0
	for _, v := range m.view.owned {
		if m.mg.Labels[v] != pre[v] {
			chg = wire.AppendUvarint(chg, uint64(v))
			chg = wire.AppendUvarint(chg, m.mg.Labels[v])
			nc++
		}
	}
	a := m.mg.Comm.Arena()
	data := a.Grab(20 + len(chg) + 30*len(m.mergeRecs))
	data = wire.AppendUvarint(data, uint64(nc))
	data = append(data, chg...)
	data = wire.AppendUvarint(data, uint64(len(m.mergeRecs)))
	for _, e := range m.mergeRecs {
		data = wire.AppendUvarint(data, uint64(e.U))
		data = wire.AppendUvarint(data, uint64(e.V))
		data = wire.AppendVarint(data, e.W)
	}
	data = a.Commit(data)
	recv = m.mg.Comm.Exchange([]proxy.Out{{Dst: 0, Data: data}})
	if m.ctx.ID() == 0 {
		var changes []vertLabel
		var merges []graph.Edge
		for _, msg := range recv {
			r := wire.NewReader(msg.Data)
			cnt := int(r.Uvarint())
			for i := 0; i < cnt; i++ {
				changes = append(changes, vertLabel{v: int(r.Uvarint()), label: r.Uvarint()})
			}
			me := int(r.Uvarint())
			for i := 0; i < me; i++ {
				merges = append(merges, graph.Edge{U: int(r.Uvarint()), V: int(r.Uvarint()), W: r.Varint()})
			}
		}
		m.coord.relabelAndGrow(changes, merges)
		rep.components = m.coord.components()
		rep.forest = m.coord.forestEdges()
		rep.mergeEdges = len(merges)
	}
	rep.phases = phases
	rep.converged = converged
	rep.cancelled = cancelled
	rep.failures = m.mg.Failures - startFail
	rep.collapseIters = m.mg.CollapseIters - startCollapse
	rep.labels = make(map[int]uint64, len(m.mg.Labels))
	for v, l := range m.mg.Labels {
		rep.labels[v] = l
	}
	m.reply(rep)
}

// selectBanks is the dynamic selection step: identical to the static
// sketch path (§2.3–2.4) except that part sketches come from the
// maintained banks instead of being built fresh against a per-phase
// projection, and applied merges record their sampled edge for the
// certificate forest.
func (m *rmachine) selectBanks(bank int) {
	parts := m.mg.Parts()
	seed := m.banks.seeds[bank]
	a := m.mg.Comm.Arena()

	// Part bank-sums to component proxies.
	var out []proxy.Out
	for _, label := range core.SortedKeys(parts) {
		sk := m.banks.get(label, bank, parts[label], m.view)
		out = append(out, proxy.Out{Dst: m.mg.ProxyOf(0, label), Data: m.mg.SketchPayload(label, sk), Framed: true})
	}
	recv := m.mg.Comm.Exchange(out)

	// Proxy side: sum part sketches per component (linearity cancels
	// intra-component edges), record part holders.
	m.mg.AccumulateParts(recv, seed)

	// Sample an outgoing edge per component; resolve the neighbor label by
	// querying the outside endpoint's home machine (live adjacency).
	out = nil
	for _, label := range m.mg.StateKeys() {
		cst := m.mg.States[label]
		sk := cst.Sum
		cst.Sum = nil
		x, y, insideSmaller, st := sk.SampleEdge()
		m.mg.Pool().Put(sk)
		switch st {
		case sketch.Empty:
			// No outgoing edges: inactive root this phase.
		case sketch.Failed:
			m.mg.Failures++
		case sketch.Sampled:
			outside := x
			if insideSmaller {
				outside = y
			}
			cst.PendU, cst.PendV = x, y
			q := a.Grab(40)
			q = wire.AppendUvarint(q, uint64(outside))
			q = wire.AppendUvarint(q, uint64(x))
			q = wire.AppendUvarint(q, uint64(y))
			q = wire.AppendUvarint(q, label)
			out = append(out, proxy.Out{Dst: m.view.Home(outside), Data: a.Commit(q)})
		}
	}
	recv = m.mg.Comm.Exchange(out)
	out = m.mg.AnswerLabelQueries(recv)
	recv = m.mg.Comm.Exchange(out)

	// DRR ranking; applied merges record the sampled edge as a fresh
	// forest edge.
	for _, msg := range recv {
		r := wire.NewReader(msg.Data)
		askLabel := r.Uvarint()
		nbrLabel := r.Uvarint()
		valid := r.Bool()
		w := r.Varint()
		st := m.mg.States[askLabel]
		if st == nil {
			panic("resident: reply for unknown component")
		}
		if !valid || nbrLabel == askLabel {
			m.mg.Failures++
			continue
		}
		m.mg.PhaseActive++
		m.mg.ApplyRank(st, nbrLabel)
		if st.Parent != st.Label {
			m.mergeRecs = append(m.mergeRecs, graph.Edge{U: st.PendU, V: st.PendV, W: w})
		}
	}
}

// runDerived executes one fresh connectivity computation over a derived
// view of the live graph — the building block of the min-cut sampling
// trials and the verification reductions. The job reuses the residency
// (partition, shared randomness, session communicator) but none of the
// incremental state: labels start as singletons over the derived view.
func (m *rmachine) runDerived(cmd hostCmd) {
	spec := cmd.spec
	rep := reply{}
	if spec.probeU >= 0 && m.view.Home(spec.probeU) == m.ctx.ID() {
		rep.probePresent = m.view.has(spec.probeU, spec.probeV)
	}
	view := m.derive(spec)
	cfg := m.runConfig(spec)
	fm := core.NewMergerOn(m.mg.Comm, view, cfg, m.mg.Sh, m.mg.Poly)
	defer fm.ReleasePools()
	fm.Cancelled = m.e.jobCancelled

	phases := 0
	converged := false
	cancelled := false
	for phases < cfg.MaxPhases {
		fm.Phase = m.globalPhase
		fm.StateSlot = 0
		fm.PhaseActive = 0
		fm.SelectSketch()
		fm.Collapse()
		fm.BroadcastAndRelabel()
		active, failures, cancel := fm.PhaseSync()
		m.globalPhase++
		phases++
		m.phaseEvent(cmd, phases-1, active, failures)
		if cancel {
			cancelled = true
			break
		}
		if active == 0 && failures == 0 {
			converged = true
			break
		}
	}
	rep.phases = phases
	rep.converged = converged
	rep.cancelled = cancelled
	rep.failures = fm.Failures
	rep.collapseIters = fm.CollapseIters
	rep.labels = fm.Labels
	m.reply(rep)
}

// runMST constructs the minimum spanning forest of the live graph with the
// §3.1 algorithm: fresh singleton labels over the resident adjacency,
// MWOE selection phases through the shared engine, MST edges accumulated
// on the proxies (weak output) and optionally disseminated to both
// endpoints' homes (strong output).
func (m *rmachine) runMST(cmd hostCmd) {
	rep := reply{}
	fm := core.NewMergerOn(m.mg.Comm, m.view, m.ccfg, m.mg.Sh, m.mg.Poly)
	defer fm.ReleasePools()
	fm.Cancelled = m.e.jobCancelled
	maxElim := m.e.cfg.MaxElimIters
	if maxElim <= 0 {
		maxElim = core.DefaultMaxElimIters(m.view.N())
	}
	w := core.NewMWOE(fm, maxElim)

	phases := 0
	converged := false
	cancelled := false
	for phases < m.ccfg.MaxPhases {
		fm.Phase = m.globalPhase
		fm.StateSlot = 0
		fm.PhaseActive = 0
		w.Select()
		fm.Collapse()
		fm.BroadcastAndRelabel()
		active, failures, cancel := fm.PhaseSync()
		m.globalPhase++
		phases++
		m.phaseEvent(cmd, phases-1, active, failures)
		if cancel {
			cancelled = true
			break
		}
		if active == 0 && failures == 0 {
			converged = true
			break
		}
	}
	rep.weakRounds = m.ctx.Round()
	if cmd.mst.strong && !cancelled {
		rep.vertexEdges = w.DisseminateStrong()
	}
	rep.phases = phases
	rep.converged = converged
	rep.cancelled = cancelled
	rep.failures = fm.Failures
	rep.collapseIters = fm.CollapseIters
	rep.elimIters = w.ElimIters
	rep.labels = fm.Labels
	for _, id := range core.SortedKeys(w.Edges) {
		rep.mstEdges = append(rep.mstEdges, w.Edges[id])
	}
	m.reply(rep)
}
