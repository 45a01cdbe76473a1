package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"kmgraph/internal/core"
	"kmgraph/internal/kmachine"
	"kmgraph/internal/store"
	"kmgraph/internal/transport"
	"kmgraph/internal/transport/local"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one job share Job; a job's root
// span has Parent -1.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rounds int    `json:"rounds,omitempty"`
}

// tracer owns the time origin and hands out job IDs. Spans stay in
// memory until the run ends (writeSpans).
type tracer struct {
	origin time.Time
	jobs   int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// phaseMark is one core.Config.PhaseHook call.
type phaseMark struct {
	at, round int64
}

// jobTrace records the spans of one job. Every method accepts a nil
// receiver and then does nothing, so an untraced job runs the same code
// with no clock reads and no transport wrapper.
type jobTrace struct {
	tr    *tracer
	job   int
	spans []span

	mu        sync.Mutex
	rounds    [][2]int64 // transport Round call intervals
	phases    []phaseMark
	heapPhase uint64 // heap in use when phase 0 ended

	blocks, crcs int64 // store blocks decoded and checksums verified
}

func (t *tracer) job() *jobTrace {
	if t == nil {
		return nil
	}
	t.jobs++
	return &jobTrace{tr: t, job: t.jobs}
}

func (jt *jobTrace) now() int64 { return int64(time.Since(jt.tr.origin)) }

// begin opens a span and returns its ID (-1 when untraced).
func (jt *jobTrace) begin(layer, name string, parent int) int {
	if jt == nil {
		return -1
	}
	id := len(jt.spans)
	jt.spans = append(jt.spans, span{Job: jt.job, ID: id, Parent: parent, Name: name, Layer: layer, Start: jt.now()})
	return id
}

func (jt *jobTrace) end(id int) {
	if jt == nil {
		return
	}
	jt.spans[id].End = jt.now()
}

// dur returns a closed span's duration.
func (jt *jobTrace) dur(id int) time.Duration {
	if jt == nil {
		return 0
	}
	return time.Duration(jt.spans[id].End - jt.spans[id].Start)
}

// countStore starts counting store decode work; the returned func stops.
func (jt *jobTrace) countStore() func() {
	if jt == nil {
		return func() {}
	}
	before := store.ReadStats()
	return func() {
		after := store.ReadStats()
		jt.blocks = after.BlocksDecoded - before.BlocksDecoded
		jt.crcs = after.CRCVerifications - before.CRCVerifications
	}
}

// hookPhases installs the phase hook on machine 0: one timestamp per
// phase boundary, plus the heap in use at the end of phase 0.
func (jt *jobTrace) hookPhases(cfg *core.Config) {
	if jt == nil {
		return
	}
	cfg.PhaseHookID = 0
	cfg.PhaseHook = func(phase, round int) {
		at := jt.now()
		var heap uint64
		if phase == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap = ms.HeapAlloc
		}
		jt.mu.Lock()
		defer jt.mu.Unlock()
		jt.phases = append(jt.phases, phaseMark{at: at, round: int64(round)})
		if phase == 0 {
			jt.heapPhase = heap
		}
	}
}

// maker returns the transport for kmachine.NewWithTransport: nil (the
// engine's default in-process transport) when untraced, else the same
// local transport wrapped to time every Round call.
func (jt *jobTrace) maker() kmachine.TransportMaker {
	if jt == nil {
		return nil
	}
	return func(p transport.Params, met *transport.Metrics, workers int) (transport.Transport, error) {
		return &timedTransport{Transport: local.New(p, met, workers), jt: jt}, nil
	}
}

// timedTransport times transport.Transport.Round from outside.
type timedTransport struct {
	transport.Transport
	jt *jobTrace
}

func (t *timedTransport) Round(in *transport.RoundIn, out *transport.RoundOut) error {
	start := t.jt.now()
	err := t.Transport.Round(in, out)
	end := t.jt.now()
	t.jt.mu.Lock()
	t.jt.rounds = append(t.jt.rounds, [2]int64{start, end})
	t.jt.mu.Unlock()
	return err
}

// closeRun turns the phase marks and Round intervals recorded during the
// engine run span into spans: phase spans tile the run (the last one,
// core.finish, runs from the last phase boundary to the end), and each
// Round span is a child of the phase it started in.
func (jt *jobTrace) closeRun(run int) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rs := jt.spans[run]
	prev, prevRound := rs.Start, int64(0)
	var phaseIDs []int
	var bounds []int64
	for i, pm := range jt.phases {
		name := "core.phase"
		if i == 0 {
			name = "core.phase0"
		}
		id := len(jt.spans)
		jt.spans = append(jt.spans, span{Job: jt.job, ID: id, Parent: run, Name: name, Layer: "core",
			Start: prev, End: pm.at, Rounds: int(pm.round - prevRound)})
		phaseIDs = append(phaseIDs, id)
		bounds = append(bounds, pm.at)
		prev, prevRound = pm.at, pm.round
	}
	id := len(jt.spans)
	jt.spans = append(jt.spans, span{Job: jt.job, ID: id, Parent: run, Name: "core.finish", Layer: "core",
		Start: prev, End: rs.End})
	phaseIDs = append(phaseIDs, id)
	for _, r := range jt.rounds {
		p := phaseIDs[sort.Search(len(bounds), func(i int) bool { return bounds[i] > r[0] })]
		jt.spans = append(jt.spans, span{Job: jt.job, ID: len(jt.spans), Parent: p, Name: "transport.round",
			Layer: "transport", Start: r[0], End: r[1]})
	}
}

// phase0 reports phase 0's duration and rounds and the heap in use at
// its end (zeros when the job ran no phase).
func (jt *jobTrace) phase0() (time.Duration, int, uint64) {
	for _, s := range jt.spans {
		if s.Name == "core.phase0" {
			return time.Duration(s.End - s.Start), s.Rounds, jt.heapPhase
		}
	}
	return 0, 0, 0
}

// roundTime sums the transport Round spans.
func (jt *jobTrace) roundTime() (time.Duration, int) {
	var d int64
	n := 0
	for _, s := range jt.spans {
		if s.Name == "transport.round" {
			d += s.End - s.Start
			n++
		}
	}
	return time.Duration(d), n
}

// selfTimes charges every instant of the root span to the innermost span
// covering it, by layer. A span's self time is its duration minus what
// its descendants cover; the root's self time is the remainder no layer
// span covers. The values therefore sum exactly to the root's duration.
func selfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	if len(spans) == 0 {
		return out
	}
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1 // parents precede children
		}
	}
	type edge struct {
		at    int64
		open  bool
		index int
	}
	root := spans[0]
	var edges []edge
	for i, s := range spans {
		st, en := max(s.Start, root.Start), min(s.End, root.End)
		if en > st {
			edges = append(edges, edge{st, true, i}, edge{en, false, i})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	active := map[int]bool{}
	last := root.Start
	for _, e := range edges {
		if e.at > last && len(active) > 0 {
			inner := -1
			for i := range active {
				if inner < 0 || depth[i] > depth[inner] || (depth[i] == depth[inner] && i > inner) {
					inner = i
				}
			}
			layer := spans[inner].Layer
			if inner == 0 {
				layer = "remainder"
			}
			out[layer] += time.Duration(e.at - last)
		}
		last = e.at
		if e.open {
			active[e.index] = true
		} else {
			delete(active, e.index)
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON array under dir.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
