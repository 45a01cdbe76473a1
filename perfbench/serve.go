package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kmgraph"
	"kmgraph/internal/graph"
	"kmgraph/internal/server"
)

const (
	serveClients   = 2    // closed-loop clients
	serveWriteFrac = 0.10 // share of requests that are batches
	serveBatchOps  = 16   // edge ops per batch
	traceSlices    = 20   // slices of a churn window: throughput is their median, tracing alternates over them
)

// served is one request as a client saw it.
type served struct {
	write      bool
	start, end time.Time
	status     int
	cache      string // X-Kmserve-Cache: "hit" or "miss" ("" for writes)
	traced     bool
	epoch      uint64
	comps      int // reads
	rounds     int // reads: rounds of the computation that answered
	batch      []graph.EdgeOp
	applied    int // writes
	rejIns     int
	rejDel     int
	body       []byte
}

func (s served) dur() time.Duration { return s.end.Sub(s.start) }

// jobSpan is one resident job, from its observer start and done events.
type jobSpan struct {
	job        string
	start, end time.Time
	rounds     int
}

// jobLog records resident jobs through kmgraph.WithObserver while on.
type jobLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	open map[int]jobSpan
	done []jobSpan
}

func (l *jobLog) event(ev kmgraph.ClusterEvent) {
	if !l.on.Load() || ev.Phase != -1 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ev.Done {
		l.open[ev.Seq] = jobSpan{job: ev.Job, start: now}
		return
	}
	js, ok := l.open[ev.Seq]
	if !ok {
		return
	}
	delete(l.open, ev.Seq)
	js.end = now
	if ev.Delta != nil {
		js.rounds = ev.Delta.Rounds
	}
	l.done = append(l.done, js)
}

// busy returns how long resident jobs ran inside [start, end).
func busy(jobs []jobSpan, start, end time.Time) time.Duration {
	var d time.Duration
	for _, j := range jobs {
		s, e := j.start, j.end
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			d += e.Sub(s)
		}
	}
	return d
}

// call drives the server in-process through ServeHTTP.
func call(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Time) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, start, time.Now()
}

// serveSetup opens the store as a resident cluster the way kmserve does
// (its server's job observer installed) and answers one warm query.
func serveSetup(path string, sz size, seed int64, log *jobLog) (*server.Server, *kmgraph.Cluster, error) {
	srv := server.New(server.Config{})
	obs := srv.JobObserver("g")
	if log != nil {
		serverObs := obs
		obs = func(ev kmgraph.ClusterEvent) { serverObs(ev); log.event(ev) }
	}
	c, err := kmgraph.OpenCluster(path, kmgraph.WithK(sz.k), kmgraph.WithSeed(seed), kmgraph.WithObserver(obs))
	if err != nil {
		srv.Close()
		return nil, nil, fmt.Errorf("open cluster: %w", err)
	}
	if err := srv.Register("g", c); err != nil {
		c.Close()
		srv.Close()
		return nil, nil, err
	}
	rec, _, _ := call(srv, http.MethodGet, "/graphs/g/connectivity", nil)
	if rec.Code != http.StatusOK {
		srv.Close()
		return nil, nil, fmt.Errorf("warm query: status %d: %s", rec.Code, rec.Body)
	}
	return srv, c, nil
}

// script is one client's seeded request sequence. It only deletes edges
// it owns (initial edges of its parity and its own inserts) and inserts
// pairs absent from the initial graph, so its ops do not depend on the
// other client's progress and the run is replayable from the seed.
type script struct {
	rng     *rand.Rand
	n       int
	initial map[uint64]bool
	mine    []graph.Edge
	added   map[uint64]bool
	nextW   int64
}

func newScript(g *graph.Graph, initial map[uint64]bool, seed int64, id int) *script {
	s := &script{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(id))),
		n:       g.N(),
		initial: initial,
		added:   map[uint64]bool{},
		nextW:   int64(g.M()) + 1 + int64(id),
	}
	for i, e := range g.Edges() {
		if i%serveClients == id {
			s.mine = append(s.mine, e)
		}
	}
	return s
}

// next returns the next request: nil for a read, else a batch.
func (s *script) next() []graph.EdgeOp {
	if s.rng.Float64() >= serveWriteFrac {
		return nil
	}
	ops := make([]graph.EdgeOp, 0, serveBatchOps)
	for len(ops) < serveBatchOps {
		if len(s.mine) > 0 && s.rng.Intn(2) == 0 {
			i := s.rng.Intn(len(s.mine))
			e := s.mine[i]
			s.mine[i] = s.mine[len(s.mine)-1]
			s.mine = s.mine[:len(s.mine)-1]
			ops = append(ops, graph.EdgeOp{Del: true, U: e.U, V: e.V})
			continue
		}
		u, v := s.rng.Intn(s.n), s.rng.Intn(s.n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		id := graph.EdgeID(u, v, s.n)
		if s.initial[id] || s.added[id] {
			continue
		}
		s.added[id] = true
		e := graph.Edge{U: u, V: v, W: s.nextW}
		s.nextW += serveClients // weights stay distinct across clients
		s.mine = append(s.mine, e)
		ops = append(ops, graph.EdgeOp{U: u, V: v, W: e.W})
	}
	return ops
}

type jsonOp struct {
	U   int   `json:"u"`
	V   int   `json:"v"`
	W   int64 `json:"w,omitempty"`
	Del bool  `json:"del,omitempty"`
}

// do sends the script's next request and decodes the answer.
func (s *script) do(h http.Handler, traced bool) served {
	ops := s.next()
	var out served
	var rec *httptest.ResponseRecorder
	if ops == nil {
		rec, out.start, out.end = call(h, http.MethodGet, "/graphs/g/connectivity", nil)
		out.cache = rec.Header().Get("X-Kmserve-Cache")
	} else {
		body := struct {
			Ops []jsonOp `json:"ops"`
		}{}
		for _, op := range ops {
			body.Ops = append(body.Ops, jsonOp{U: op.U, V: op.V, W: op.W, Del: op.Del})
		}
		b, _ := json.Marshal(body) // cannot fail: plain structs
		rec, out.start, out.end = call(h, http.MethodPost, "/graphs/g/batch", b)
		out.write, out.batch = true, ops
	}
	out.status, out.traced = rec.Code, traced
	if rec.Code != http.StatusOK {
		out.body = rec.Body.Bytes()
		return out
	}
	var resp struct {
		Epoch           uint64 `json:"epoch"`
		Components      int    `json:"components"`
		Rounds          int    `json:"rounds"`
		Applied         int    `json:"applied"`
		RejectedInserts int    `json:"rejected_inserts"`
		RejectedDeletes int    `json:"rejected_deletes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		out.status, out.body = 0, []byte(err.Error())
		return out
	}
	out.epoch, out.comps, out.rounds = resp.Epoch, resp.Components, resp.Rounds
	out.applied, out.rejIns, out.rejDel = resp.Applied, resp.RejectedInserts, resp.RejectedDeletes
	return out
}

// replay is the serve-churn oracle: the initial edge set with the
// batches applied in epoch order.
type replay struct {
	n     int
	edges map[uint64]graph.Edge
}

func (rp *replay) apply(ops []graph.EdgeOp) (applied, rejIns, rejDel int) {
	for _, op := range ops {
		id := graph.EdgeID(op.U, op.V, rp.n)
		_, present := rp.edges[id]
		switch {
		case op.Del && present:
			delete(rp.edges, id)
			applied++
		case op.Del:
			rejDel++
		case present:
			rejIns++
		default:
			rp.edges[id] = graph.Edge{U: op.U, V: op.V, W: op.W}
			applied++
		}
	}
	return
}

func (rp *replay) components() int {
	uf := graph.NewUnionFind(rp.n)
	for _, e := range rp.edges {
		uf.Union(e.U, e.V)
	}
	return uf.Count()
}

func (rp *replay) graph() *graph.Graph {
	b := graph.NewBuilder(rp.n)
	ids := make([]uint64, 0, len(rp.edges))
	for id := range rp.edges {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := rp.edges[id]
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

// checkServed replays the writes in epoch order and checks every write's
// counts and every read's component count at its epoch. It returns the
// replay at the last epoch.
func checkServed(r *result, g *graph.Graph, reqs []served) *replay {
	rp := &replay{n: g.N(), edges: map[uint64]graph.Edge{}}
	for _, e := range g.Edges() {
		rp.edges[graph.EdgeID(e.U, e.V, g.N())] = e
	}
	var writes []served
	compsAt := map[uint64]int{}
	for _, q := range reqs {
		if q.status != http.StatusOK {
			continue
		}
		if q.write {
			writes = append(writes, q)
		} else {
			compsAt[q.epoch] = -1
		}
	}
	// Epoch order; a batch that changed nothing shares its epoch with the
	// batch that reached it and replays after it.
	sort.SliceStable(writes, func(i, j int) bool {
		if writes[i].epoch != writes[j].epoch {
			return writes[i].epoch < writes[j].epoch
		}
		return writes[i].applied > writes[j].applied
	})
	comps := func(epoch uint64) {
		if _, ok := compsAt[epoch]; ok {
			compsAt[epoch] = rp.components()
		}
	}
	comps(0)
	epoch := uint64(0)
	for _, w := range writes {
		applied, ins, del := rp.apply(w.batch)
		if applied > 0 {
			epoch++
		}
		r.check(w.epoch == epoch && w.applied == applied && w.rejIns == ins && w.rejDel == del,
			"batch at epoch %d: applied %d/%d/%d, oracle epoch %d applied %d/%d/%d",
			w.epoch, w.applied, w.rejIns, w.rejDel, epoch, applied, ins, del)
		if applied > 0 {
			comps(epoch)
		}
	}
	for _, q := range reqs {
		switch {
		case q.status != http.StatusOK:
			r.op(fmt.Sprintf("request (write %v): status %d: %s", q.write, q.status, q.body))
		case !q.write:
			r.check(q.comps == compsAt[q.epoch], "read at epoch %d: %d components, oracle %d", q.epoch, q.comps, compsAt[q.epoch])
		}
	}
	return rp
}

// mstCall is one served MST request.
type mstCall struct {
	start, end time.Time
	rounds     int
}

func (m mstCall) dur() time.Duration { return m.end.Sub(m.start) }

// serveMST asks for the MST with its edges and checks it against Kruskal
// on g.
func serveMST(r *result, h http.Handler, g *graph.Graph) mstCall {
	rec, start, end := call(h, http.MethodGet, "/graphs/g/mst?edges=true", nil)
	var resp struct {
		TotalWeight int64 `json:"total_weight"`
		Rounds      int   `json:"rounds"`
		Cached      bool  `json:"cached"`
		Edges       []struct {
			U, V int
			W    int64
		} `json:"edges"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		r.op(fmt.Sprintf("mst: status %d: %s", rec.Code, rec.Body))
		return mstCall{start, end, 0}
	}
	o := newOracle(g)
	edges := make([]graph.Edge, len(resp.Edges))
	for i, e := range resp.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
	}
	r.check(!resp.Cached && o.mstOK(edges, resp.TotalWeight), "served MST differs from Kruskal (cached %v)", resp.Cached)
	return mstCall{start, end, resp.Rounds}
}

// serveLabels checks the final labelling against the replayed graph.
func serveLabels(r *result, h http.Handler, g *graph.Graph) {
	rec, _, _ := call(h, http.MethodGet, "/graphs/g/connectivity?labels=true", nil)
	var resp struct {
		Labels []uint64 `json:"labels"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		r.op(fmt.Sprintf("labels: status %d: %s", rec.Code, rec.Body))
		return
	}
	r.check(newOracle(g).labelsOK(resp.Labels), "served labels differ from union-find at the last epoch")
}

// promCounter reads one sample of the server's GET /metrics exposition.
func promCounter(h http.Handler, sample string) float64 {
	rec, _, _ := call(h, http.MethodGet, "/metrics", nil)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), sample+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// churn runs the closed-loop clients against h for dur. In a traced run
// tracing is on in every other of traceSlices slices, so traced and
// untraced requests see the same graph state on average. It returns the
// requests and the requests per second completed in each slice.
func churn(h http.Handler, g *graph.Graph, seed int64, dur time.Duration, log *jobLog) ([]served, []float64) {
	initial := map[uint64]bool{}
	for _, e := range g.Edges() {
		initial[graph.EdgeID(e.U, e.V, g.N())] = true
	}
	var reqs [serveClients][]served
	var wg sync.WaitGroup
	slice := dur / traceSlices
	tracedAt := func(start time.Time) bool { return log != nil && (time.Since(start)/slice)%2 == 1 }
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc := newScript(g, initial, seed, c)
			for time.Since(start) < dur {
				reqs[c] = append(reqs[c], sc.do(h, tracedAt(start)))
			}
		}(c)
	}
	// Resident jobs are logged when they start inside a traced slice.
	if log != nil {
		for time.Since(start) < dur {
			log.on.Store(tracedAt(start))
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if log != nil {
		log.on.Store(false)
	}
	var all []served
	for _, rs := range reqs {
		all = append(all, rs...)
	}
	perSlice := make([]float64, traceSlices)
	for _, q := range all {
		if i := int(q.end.Sub(start) / slice); q.status == http.StatusOK && i < traceSlices {
			perSlice[i] += 1 / secs(slice)
		}
	}
	return all, perSlice
}

// runServe is the serve-churn workload: closed-loop clients mixing
// connectivity reads with edge batches against a resident cluster behind
// the HTTP server, driven in-process. Each of the setupRepeats set-ups
// loads a graph of its own; its fresh cluster first answers one MST,
// then serves its share of the churn window. MST stays out of the churn
// mix: one recompute takes seconds and would stall both clients.
func runServe(rc runConfig, r *result) error {
	var log *jobLog
	if rc.trace {
		log = &jobLog{open: map[int]jobSpan{}}
	}
	var setupTimes, mstTimes, mstRounds, perSlice []float64
	var all []served
	var lastMST mstCall
	var lastPath string
	var lastOracle time.Duration
	coalesced := 0.0
	for rep := 0; rep < setupRepeats; rep++ {
		settle()
		t0 := time.Now()
		g, path, err := writeInput(rc.dir, rc.sz, rc.seed, rep)
		if err != nil {
			return err
		}
		srv, _, err := serveSetup(path, rc.sz, rc.seed, log)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, secs(time.Since(t0)))

		settle()
		m := serveMST(r, srv, g)
		mstTimes = append(mstTimes, secs(m.dur()))
		mstRounds = append(mstRounds, float64(m.rounds))

		settle()
		reqs, slices := churn(srv, g, inputSeed(rc.seed, rep), rc.dur/setupRepeats, log)
		all, perSlice = append(all, reqs...), append(perSlice, slices...)
		final := checkServed(r, g, reqs).graph()
		serveLabels(r, srv, final)
		coalesced += promCounter(srv, `kmserve_cache_coalesced_total{graph="g"}`)
		if rep == setupRepeats-1 {
			// The MST of the churned graph, checked and, in a traced
			// run, traced.
			if log != nil {
				log.on.Store(true)
			}
			lastMST = serveMST(r, srv, final)
			lastPath, lastOracle = path, newOracle(g).took
		}
		srv.Close()
	}
	r.setE2E("setup_s", "s", median(setupTimes))
	r.note("setup_s samples %v", setupTimes)

	var missLat, missRounds []float64
	for _, q := range all {
		if q.status == http.StatusOK && !q.write && q.cache == "miss" && !q.traced {
			missLat = append(missLat, secs(q.dur()))
			missRounds = append(missRounds, float64(q.rounds))
		}
	}
	r.setE2E("conn_s", "s", median(missLat))
	r.setE2E("conn_rounds", "count", mean(missRounds))
	r.setE2E("mst_s", "s", median(mstTimes))
	r.setE2E("mst_rounds", "count", mean(mstRounds))
	// Throughput is the median over the window's slices, so a short stall
	// of the host moves it less.
	r.setE2E("ops_per_s", "1/s", median(perSlice))
	r.note("conn_s (cache-miss reads) samples %d", len(missLat))
	r.note("mst_s samples %v", mstTimes)

	serverLayers(r, all, coalesced, rc.trace)
	if rc.trace {
		residentLayers(r, log, all, lastMST)
		r.setLayer("graph.oracle_s", "s", secs(lastOracle))
		return probeLayers(r, lastPath, rc.sz.k, rc.seed)
	}
	return nil
}

// serverLayers reports the request latencies of the untraced requests
// and the server's cache and admission counters.
func serverLayers(r *result, all []served, coalesced float64, trace bool) {
	var reads, writes []float64
	hits, lookups, shed := 0, 0, 0
	for _, q := range all {
		if q.status == http.StatusTooManyRequests {
			shed++
		}
		if q.traced || q.status != http.StatusOK {
			continue
		}
		ms := float64(q.dur()) / float64(time.Millisecond)
		if q.write {
			writes = append(writes, ms)
			continue
		}
		reads = append(reads, ms)
		lookups++
		if q.cache == "hit" {
			hits++
		}
	}
	r.note("reads %d: p50 %.4f ms p99 %.3f ms; writes %d: p50 %.3f ms p90 %.3f ms",
		len(reads), quantile(reads, 0.5), quantile(reads, 0.99), len(writes), quantile(writes, 0.5), quantile(writes, 0.9))
	if !trace {
		return
	}
	r.setLayer("server.read_p50_ms", "ms", quantile(reads, 0.5))
	r.setLayer("server.read_p99_ms", "ms", quantile(reads, 0.99))
	r.setLayer("server.read_samples", "count", float64(len(reads)))
	r.setLayer("server.write_p50_ms", "ms", quantile(writes, 0.5))
	r.setLayer("server.write_p90_ms", "ms", quantile(writes, 0.9))
	r.setLayer("server.write_samples", "count", float64(len(writes)))
	r.setLayer("server.cache_lookups", "count", float64(lookups))
	if lookups > 0 {
		r.setLayer("server.cache_hit_ratio", "ratio", float64(hits)/float64(lookups))
	}
	r.setLayer("server.shed_429", "count", float64(shed))
	r.setLayer("server.coalesced", "count", coalesced)
}

// residentLayers charges traced requests' time to the resident jobs that
// ran during them and to the server, and reports the resident jobs.
func residentLayers(r *result, log *jobLog, all []served, mst mstCall) {
	log.mu.Lock()
	jobs := append([]jobSpan(nil), log.done...)
	log.mu.Unlock()
	var recompute, batch, rounds []float64
	for _, j := range jobs {
		switch j.job {
		case "connectivity":
			recompute = append(recompute, secs(j.end.Sub(j.start)))
			rounds = append(rounds, float64(j.rounds))
		case "batch":
			batch = append(batch, secs(j.end.Sub(j.start)))
		}
	}
	r.setLayer("resident.recompute_s", "s", median(recompute))
	r.setLayer("resident.batch_s", "s", median(batch))
	r.setLayer("resident.rounds_per_recompute", "count", median(rounds))
	r.setLayer("resident.jobs", "count", float64(len(jobs)))

	// Every traced request splits into resident time (a job ran) and
	// server time (everything else: routing, cache, admission, JSON).
	var self time.Duration
	traced := 0
	s := samples{}
	for _, q := range all {
		if !q.traced || q.status != http.StatusOK {
			continue
		}
		res := busy(jobs, q.start, q.end)
		self += q.dur() - res
		traced++
		if !q.write && q.cache == "miss" {
			addSplit(s, "conn", q.dur(), map[string]time.Duration{"resident": res, "server": q.dur() - res})
		}
	}
	res := busy(jobs, mst.start, mst.end)
	addSplit(s, "mst", mst.dur(), map[string]time.Duration{"resident": res, "server": mst.dur() - res})
	if traced > 0 {
		r.setLayer("server.self_s", "s", secs(self)/float64(traced))
	}
	var plain, tr []float64
	for _, q := range all {
		if q.status == http.StatusOK {
			if q.traced {
				tr = append(tr, secs(q.dur()))
			} else {
				plain = append(plain, secs(q.dur()))
			}
		}
	}
	if len(plain) > 0 && len(tr) > 0 {
		base := mean(plain)
		s.add("trace.base_s", base)
		s.add("trace.overhead_share", mean(tr)/base-1)
	}
	s.into(r)
}
