// Command perfbench is the repository's benchmark of record. One run
// measures one workload for a fixed time, checks every answer against a
// sequential oracle, and prints as its last line a JSON object with the
// end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
// Build and run it through run.py, which keeps the Go build cache inside
// the checkout:
//
//	python3 perfbench/run.py --workload cold-query --seed 1 --seconds 25 --trace 0
//
// README.md in this directory lists the workloads and what every metric
// means.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kmgraph/internal/procstat"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed     int64
	dur      time.Duration
	trace    bool
	dir      string // scratch space for the run's stores, removed at exit
	traceDir string // where a traced run writes its spans
	sz       size
}

type workload struct {
	sz  size
	run func(rc runConfig, r *result) error
}

// workloads are sized for a 2-core, 7 GB host, so that a run of 20 s
// holds several jobs of each kind and reports their median; see
// README.md for why each exists.
var workloads = map[string]workload{
	"cold-query":  {size{n: 20000, m: 60000, k: 16}, runCold},
	"serve-churn": {size{n: 20000, m: 60000, k: 8}, runServe},
	"dist-tcp":    {size{n: 20000, m: 60000, k: 16}, runDist},
}

func main() {
	name := flag.String("workload", "", "workload: cold-query, serve-churn or dist-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := runConfig{
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		dir:      scratch,
		traceDir: filepath.Join(*dir, "traces"),
		sz:       w.sz,
	}
	r, err := measure(*name, w, rc)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, f := range r.failures {
		fmt.Println("# FAILED:", f)
	}
	rep := r.final(rc.trace)
	if err := writeReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// measure runs one workload and fills in every declared metric. A metric
// the workload's layers do not produce reads 0 (for instance dist.* on
// cold-query, where no distributed layer runs).
func measure(name string, w workload, rc runConfig) (*result, error) {
	r := newResult()
	if err := w.run(rc, r); err != nil {
		return nil, err
	}
	r.setE2E("peak_rss_bytes", "bytes", float64(procstat.MaxRSSBytes()))
	if rc.trace {
		if err := writeSpans(rc.traceDir, fmt.Sprintf("%s-seed%d.json", name, rc.seed), r.spans); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayer {
		if _, ok := r.layer[d.name]; !ok {
			r.setLayer(d.name, d.unit, 0)
		}
	}
	for _, d := range endToEnd {
		if _, ok := r.e2e[d.name]; !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
	}
	for n := range r.layer {
		if !declared(perLayer, n) {
			return nil, fmt.Errorf("workload %s measured undeclared metric %s", name, n)
		}
	}
	return r, nil
}

type decl struct{ name, unit string }

func declared(ds []decl, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}
