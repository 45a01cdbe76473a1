package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kmgraph"
	"kmgraph/internal/core"
	"kmgraph/internal/dist"
	"kmgraph/internal/graph"
)

// startFleetWorker launches one in-process dist worker and returns it
// with its dialable address.
func startFleetWorker(t *testing.T) (*dist.Worker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorker(ln, dist.WorkerOptions{
		MeshTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	go w.Serve()
	t.Cleanup(func() { w.Close() })
	return w, w.Addr()
}

// newFleetServer registers a fleet of live workers over a gnm source
// and returns the serving front end plus the fleet-local golden.
func newFleetServer(t *testing.T, name string, workers int) (*Server, *httptest.Server, *core.Result) {
	t.Helper()
	const (
		n, m = 4000, 12000
		gs   = int64(3)
		k    = 4
		seed = int64(9)
	)
	cfg := core.Config{K: k, Seed: seed}
	golden, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	addrs := make([]string, workers)
	for i := range addrs {
		_, addrs[i] = startFleetWorker(t)
	}
	s := New(Config{})
	err = s.RegisterFleet(name, FleetSpec{
		Source: fmt.Sprintf("gnm:%d:%d:%d", n, m, gs),
		Addrs:  addrs,
		Conn:   cfg,
		Coord: dist.CoordOptions{
			Retry: dist.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("RegisterFleet: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, golden
}

func TestFleetConnectivityMatchesLocal(t *testing.T) {
	_, ts, golden := newFleetServer(t, "web", 2)

	var out struct {
		Graph      string `json:"graph"`
		Components int    `json:"components"`
		Rounds     int    `json:"rounds"`
		Cached     bool   `json:"cached"`
	}
	resp := getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Components != golden.Components {
		t.Errorf("components = %d, want %d", out.Components, golden.Components)
	}
	if out.Rounds != golden.Metrics.Rounds {
		t.Errorf("rounds = %d, want %d (distributed run not bit-identical)", out.Rounds, golden.Metrics.Rounds)
	}
	if out.Cached || resp.Header.Get("X-Kmserve-Cache") != "miss" {
		t.Errorf("first request: cached=%v header=%q, want fresh miss", out.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}

	// Fleet graphs are immutable: the second request must be a hit.
	resp = getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if !out.Cached || resp.Header.Get("X-Kmserve-Cache") != "hit" {
		t.Errorf("second request: cached=%v header=%q, want cache hit", out.Cached, resp.Header.Get("X-Kmserve-Cache"))
	}

	var info graphInfo
	getJSON(t, ts.URL+"/graphs/web", http.StatusOK, &info)
	if info.State != "healthy" || len(info.Workers) != 2 {
		t.Errorf("info = %+v, want healthy with 2 workers", info)
	}
}

func TestFleetDownSheds503(t *testing.T) {
	// A listener that is opened and immediately closed yields an address
	// with nothing behind it: every probe and dial fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	s := New(Config{})
	err = s.RegisterFleet("ghost", FleetSpec{
		Source: "gnm:1000:3000:1",
		Addrs:  []string{dead},
		Conn:   core.Config{K: 2, Seed: 1},
	})
	if err != nil {
		t.Fatalf("RegisterFleet: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	resp, err := http.Get(ts.URL + "/graphs/ghost/connectivity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	var info graphInfo
	getJSON(t, ts.URL+"/graphs/ghost", http.StatusServiceUnavailable, &info)
	if info.State != "down" {
		t.Errorf("state = %q, want down", info.State)
	}
}

func TestFleetStateOnMetrics(t *testing.T) {
	_, ts, _ := newFleetServer(t, "web", 2)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	nr, _ := resp.Body.Read(buf)
	body := string(buf[:nr])
	want := `kmserve_graph_state{graph="web"} 2`
	if !strings.Contains(body, want) {
		t.Errorf("metrics exposition missing %q", want)
	}
	if !strings.Contains(body, `kmserve_fleet_workers_up{graph="web"} 2`) {
		t.Errorf("metrics exposition missing workers-up gauge")
	}
}

// TestFleetDegradesAndRecovers walks the full degradation arc: a lost
// worker turns job requests into 503 + Retry-After (not hangs, not
// 500s), and once a replacement worker is listening again the same
// endpoint serves the golden result with no server restart.
func TestFleetDegradesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery test")
	}
	const (
		n, m = 4000, 12000
		gs   = int64(3)
		k    = 4
		seed = int64(9)
	)
	cfg := core.Config{K: k, Seed: seed}
	golden, err := core.RunSource(graph.StreamGNM(n, m, gs), cfg)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}

	w1, a1 := startFleetWorker(t)
	_, a2 := startFleetWorker(t)

	s := New(Config{})
	err = s.RegisterFleet("web", FleetSpec{
		Source: fmt.Sprintf("gnm:%d:%d:%d", n, m, gs),
		Addrs:  []string{a1, a2},
		Conn:   cfg,
		Coord: dist.CoordOptions{
			HeartbeatTimeout: 5 * time.Second,
			Retry:            dist.RetryPolicy{Attempts: 2, Backoff: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("RegisterFleet: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Lose a worker: the job fails link-down after its retry budget and
	// the endpoint degrades to 503 + Retry-After.
	w1.Close()
	resp, err := http.Get(ts.URL + "/graphs/web/connectivity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("with dead worker: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 without Retry-After header")
	}

	// A replacement worker on the same address restores service; no
	// server-side intervention needed.
	ln, err := net.Listen("tcp", a1)
	if err != nil {
		t.Fatalf("relisten on %s: %v", a1, err)
	}
	w := dist.NewWorker(ln, dist.WorkerOptions{
		MeshTimeout:       30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	go w.Serve()
	t.Cleanup(func() { w.Close() })

	var out struct {
		Components int `json:"components"`
		Rounds     int `json:"rounds"`
	}
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Components != golden.Components || out.Rounds != golden.Metrics.Rounds {
		t.Errorf("recovered result = %d components / %d rounds, want %d / %d",
			out.Components, out.Rounds, golden.Components, golden.Metrics.Rounds)
	}
}

// TestFleetTraceAndRoundGauges pins the fleet observability wiring: a
// fleet job feeds the per-worker round gauges (previously the heartbeat
// round counts were decoded and discarded) and leaves an assembled
// cross-process trace behind GET /graphs/{name}/trace with one pid per
// worker whose span round sums telescope to the job's merged rounds.
func TestFleetTraceAndRoundGauges(t *testing.T) {
	_, ts, golden := newFleetServer(t, "web", 2)

	var out struct {
		Rounds int `json:"rounds"`
	}
	getJSON(t, ts.URL+"/graphs/web/connectivity", http.StatusOK, &out)
	if out.Rounds != golden.Metrics.Rounds {
		t.Fatalf("rounds = %d, want %d", out.Rounds, golden.Metrics.Rounds)
	}

	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	resp := getJSON(t, ts.URL+"/graphs/web/trace", http.StatusOK, &trace)
	if id := resp.Header.Get("X-Kmserve-Trace-Id"); id == "" || id == strings.Repeat("0", 16) {
		t.Errorf("trace id header = %q, want a minted id", id)
	}
	perPid := map[int]float64{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if r, ok := ev.Args["rounds"].(float64); ok {
			perPid[ev.Pid] += r
		}
	}
	if len(perPid) != 2 {
		t.Fatalf("trace span pids = %v, want one per worker", perPid)
	}
	for pid, sum := range perPid {
		if int(sum) != golden.Metrics.Rounds {
			t.Errorf("pid %d span rounds sum to %v, want %d", pid, sum, golden.Metrics.Rounds)
		}
	}

	// The heartbeat round counts surface as per-worker gauges.
	body := scrape(t, ts.URL)
	for w := 0; w < 2; w++ {
		sample := fmt.Sprintf(`kmserve_fleet_job_rounds{graph="web",worker="%d"}`, w)
		if v := sampleValue(t, body, sample); v <= 0 {
			t.Errorf("%s = %v, want > 0 after a fleet job", sample, v)
		}
	}
}

// TestFleetRoundGaugeIgnoresIdleBeats pins the round gauge against the
// heartbeats a worker sends outside its engine's run (round count 0):
// one landing after the engine finished must not erase the job's count.
func TestFleetRoundGaugeIgnoresIdleBeats(t *testing.T) {
	f := &fleet{spec: FleetSpec{Addrs: []string{"w0"}}.withDefaults(), jobRounds: make([]atomic.Uint64, 1)}
	f.state.Store(fleetHealthy)
	f.run(func(opts dist.CoordOptions) error {
		for _, rounds := range []uint64{0, 17, 42, 0} {
			opts.Progress(0, rounds)
		}
		return nil
	})
	if got := f.jobRounds[0].Load(); got != 42 {
		t.Errorf("round gauge = %d after beats 0, 17, 42, 0; want 42", got)
	}
}

// TestFleetGraphIsATenant pins that a fleet-backed graph is served as an
// ordinary tenant: identical concurrent misses coalesce behind one fleet
// job, every resident-only family answers 501 with a JSON error, GET
// /graphs lists fleet and resident graphs together, and the two
// backends share one name space.
func TestFleetGraphIsATenant(t *testing.T) {
	s, ts, golden := newFleetServer(t, "web", 2)
	local, err := kmgraph.NewCluster(kmgraph.GNM(100, 300, 1), kmgraph.WithK(2), kmgraph.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("local", local); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// A cold herd on the fleet graph: every response is the golden
	// answer, and followers waited on the leader instead of each
	// running a fleet job.
	const herd = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]connectivityResponse, herd)
	errs := make([]error, herd)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/graphs/web/connectivity")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&got[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if errs[i] != nil {
			t.Errorf("request %d: %v", i, errs[i])
		} else if c.Components != golden.Components || c.Rounds != golden.Metrics.Rounds {
			t.Errorf("request %d: %d components / %d rounds, want %d / %d",
				i, c.Components, c.Rounds, golden.Components, golden.Metrics.Rounds)
		}
	}
	if v := sampleValue(t, scrape(t, ts.URL), `kmserve_cache_coalesced_total{graph="web"}`); v < 1 {
		t.Errorf("kmserve_cache_coalesced_total = %v, want >= 1", v)
	}

	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/spanning-tree", ""},
		{"GET", "/connectivity?forest=true", ""},
		{"GET", "/mincut", ""},
		{"POST", "/verify", `{"problem":"cycle"}`},
		{"POST", "/batch", `{"ops":[{"u":0,"v":1}]}`},
		{"GET", "/metrics", ""},
	} {
		t.Run(tc.method+tc.path, func(t *testing.T) {
			req, _ := http.NewRequest(tc.method, ts.URL+"/graphs/web"+tc.path, strings.NewReader(tc.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e errorResponse
			if resp.StatusCode != http.StatusNotImplemented || json.Unmarshal(body, &e) != nil || e.Error == "" {
				t.Errorf("status %d body %s, want 501 with a JSON error", resp.StatusCode, body)
			}
		})
	}

	var list struct {
		Graphs []graphInfo `json:"graphs"`
	}
	getJSON(t, ts.URL+"/graphs", http.StatusOK, &list)
	if len(list.Graphs) != 2 || list.Graphs[0].Name != "local" || list.Graphs[0].N != 100 ||
		list.Graphs[1].Name != "web" || list.Graphs[1].State != "healthy" {
		t.Errorf("graphs list = %+v, want local (n=100) and healthy web", list.Graphs)
	}

	dup, err := kmgraph.NewCluster(kmgraph.GNM(100, 300, 1), kmgraph.WithK(2), kmgraph.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	if err := s.Register("web", dup); err == nil {
		t.Error("Register over a fleet graph's name succeeded")
	}
	spec := FleetSpec{Source: "gnm:100:300:1", Addrs: []string{"127.0.0.1:1"}, Conn: core.Config{K: 2}}
	if err := s.RegisterFleet("local", spec); err == nil {
		t.Error("RegisterFleet over a resident graph's name succeeded")
	}
}
