package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"kmgraph"
	"kmgraph/internal/core"
	"kmgraph/internal/graph"
	"kmgraph/internal/store"
)

var small = size{n: 2000, m: 6000, k: 8}

const smallSeed = 3

func writeSmall(t *testing.T) (*graph.Graph, string) {
	t.Helper()
	g, path, err := writeInput(t.TempDir(), small, smallSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, path
}

// The benchmark's outside-in cold path, with and without its spans and
// timed transport, computes exactly what core.RunSource and core.RunMST
// compute: same answers, same full Metrics.
func TestColdPathMatchesCore(t *testing.T) {
	g, path := writeSmall(t)
	rd, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	cfg := core.Config{K: small.k, Seed: smallSeed}
	wantConn, err := core.RunSource(rd.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMST, err := core.RunMST(g, core.MSTConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		var jt *jobTrace
		if traced {
			jt = newTracer().job()
		}
		job := coldJob{path: path, k: small.k, seed: smallSeed, jt: jt}
		c, err := job.conn()
		if err != nil {
			t.Fatal(err)
		}
		if !sameConn(wantConn, c) {
			t.Errorf("traced=%v: connectivity differs from core.RunSource", traced)
		}
		if traced {
			job.jt = newTracer().job()
		}
		m, err := job.mst()
		if err != nil {
			t.Fatal(err)
		}
		if !sameMST(wantMST, m) {
			t.Errorf("traced=%v: MST differs from core.RunMST", traced)
		}
	}
}

// dist-tcp's coordinator path, traced or not, answers exactly as the
// cold path does.
func TestDistPathMatchesCold(t *testing.T) {
	_, path := writeSmall(t)
	want, err := coldJob{path: path, k: small.k, seed: smallSeed}.conn()
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(distWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	for _, traced := range []bool{false, true} {
		var jt *jobTrace
		if traced {
			jt = newTracer().job()
		}
		d := &distJob{addrs: f.addrs, source: "store:" + path, k: small.k, seed: smallSeed, jt: jt}
		got, err := d.conn(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !sameConn(want, got) {
			t.Errorf("traced=%v: distributed connectivity differs from the cold path", traced)
		}
	}
}

// Driving the server through ServeHTTP, with or without the job log,
// does exactly the engine work of calling the Cluster directly.
func TestServePathMatchesCluster(t *testing.T) {
	g, path := writeSmall(t)
	initial := map[uint64]bool{}
	for _, e := range g.Edges() {
		initial[graph.EdgeID(e.U, e.V, g.N())] = true
	}
	for _, traced := range []bool{false, true} {
		var log *jobLog
		if traced {
			log = &jobLog{open: map[int]jobSpan{}}
			log.on.Store(true)
		}
		srv, served, err := serveSetup(path, small, smallSeed, log)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := kmgraph.OpenCluster(path, kmgraph.WithK(small.k), kmgraph.WithSeed(smallSeed))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := direct.Connectivity(ctx); err != nil { // serveSetup's warm query
			t.Fatal(err)
		}
		sc := newScript(g, initial, smallSeed, 0)
		mirror := newScript(g, initial, smallSeed, 0)
		for i := 0; i < 60; i++ {
			q := sc.do(srv, traced)
			ops := mirror.next()
			if q.status != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, q.status, q.body)
			}
			if ops == nil {
				if q.cache == "hit" {
					continue // served from the cache: no engine work
				}
				want, err := direct.Connectivity(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if q.comps != want.Components || q.rounds != want.Rounds {
					t.Errorf("read %d: %d components %d rounds, cluster %d, %d", i, q.comps, q.rounds, want.Components, want.Rounds)
				}
			} else if _, err := direct.ApplyBatch(ctx, ops); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := direct.MST(ctx); err != nil {
			t.Fatal(err)
		}
		rec, _, _ := call(srv, http.MethodGet, "/graphs/g/mst", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("mst: %d", rec.Code)
		}
		if got, want := served.Metrics(), direct.Metrics(); !reflect.DeepEqual(got.Total, want.Total) || got.Epoch != want.Epoch {
			t.Errorf("traced=%v: served cluster Metrics differ from the direct cluster's", traced)
		}
		srv.Close()
		direct.Close()
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// Every workload, at tiny sizes and in both modes, passes its answer
// gates and prints exactly the metrics BENCHMARK.json declares, with
// their units; in a traced run each job's layer parts sum to its wall.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	tiny := size{n: 400, m: 1200, k: 4}
	for _, wl := range bj.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the benchmark", wl.Name)
		}
		w.sz = tiny
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 5, dur: 300 * time.Millisecond, trace: trace, dir: t.TempDir(), traceDir: t.TempDir(), sz: tiny}
			r, err := measure(wl.Name, w, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			rep := r.final(trace)
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: failures %v", wl.Name, trace, r.failures)
			}
			want := map[string]string{}
			decls := bj.EndToEnd
			if trace {
				decls = bj.PerLayer
			}
			for _, d := range decls {
				want[d.Name] = d.Unit
			}
			got := map[string]string{}
			for n, m := range rep.Metrics {
				got[n] = m.Unit
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, n)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: printed metrics %v, BENCHMARK.json declares %v", wl.Name, trace, got, want)
			}
			if trace {
				for _, job := range []string{"conn", "mst"} {
					wall := rep.Metrics["split."+job+".wall_s"].Value
					parts := 0.0
					for _, l := range splitLayers {
						parts += rep.Metrics["split."+job+"."+l+"_s"].Value
					}
					if wall <= 0 || math.Abs(parts-wall) > 1e-9*wall+1e-9 {
						t.Errorf("%s %s: layer parts sum to %v, wall %v", wl.Name, job, parts, wall)
					}
				}
			}
		}
	}
}

// The per-layer declarations in the code are the ones BENCHMARK.json
// lists, in order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layer []decl
	for _, d := range bj.EndToEnd {
		e2e = append(e2e, decl{d.Name, d.Unit})
	}
	for _, d := range bj.PerLayer {
		layer = append(layer, decl{d.Name, d.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differ:\n json %v\n code %v", layer, perLayer)
	}
}

// selfTimes charges each instant to the innermost span and the rest of
// the root to the remainder.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "kmachine", Start: 10, End: 90},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 50},
		{ID: 3, Parent: 2, Layer: "transport", Start: 20, End: 25},
		{ID: 4, Parent: 1, Layer: "core", Start: 50, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"remainder": 20, "core": 75, "transport": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
