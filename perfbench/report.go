package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result accumulates one run: the operations attempted, the failures
// with their reasons, and both metric families. main prints the family
// the --trace flag selects.
type result struct {
	attempted int
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string
	spans     []span
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// op counts one attempted operation; a non-empty problem marks it failed
// (an error or a wrong answer).
func (r *result) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failures = append(r.failures, problem)
	}
}

// check counts one answer gate.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.op("")
	} else {
		r.op(fmt.Sprintf(format, args...))
	}
}

func (r *result) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *result) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// final builds the printed report for the selected family.
func (r *result) final(trace bool) report {
	ms := r.e2e
	if trace {
		ms = r.layer
	}
	return report{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    len(r.failures),
		Metrics:   ms,
	}
}

func writeReport(w io.Writer, rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile with linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }
