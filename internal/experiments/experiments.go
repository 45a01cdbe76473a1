// Package experiments contains the harness that reproduces every result of
// the paper as an executable experiment (E1–E13; see the catalog in
// EXPERIMENTS.md for the experiment-to-theorem index). Each experiment
// sweeps the parameters the corresponding theorem speaks about, runs the
// real algorithms on the k-machine simulator over several seeds, and
// reports paper-style tables: measured round counts, fitted scaling
// exponents, approximation ratios, verification verdicts, and
// lower-bound traffic.
//
// The paper is a theory paper, so the quantities to match are *shapes*:
// connectivity and MST rounds falling like k^-2 while the baselines fall
// like k^-1 (Theorems 1–2), DRR depths and phase counts growing like
// log n (Lemmas 6–7), min-cut estimates within O(log n) of λ (Theorem 3),
// verification verdicts matching oracles at Õ(n/k²) cost (Theorem 4), and
// Alice/Bob cut traffic growing linearly in the disjointness instance size
// (Theorem 5). Absolute constants are dominated by the polylog factors the
// Õ notation hides (the paper bounds them by O(log³ n)); EXPERIMENTS.md
// records both.
package experiments

import (
	"fmt"

	"kmgraph/internal/stats"
)

// Params controls an experiment run.
type Params struct {
	// Quick shrinks sweeps for smoke tests and CI.
	Quick bool
	// Seed is the base seed; trials use Seed, Seed+1, ...
	Seed int64
	// Trials is the number of seeds per configuration (0 => 3, or 1 when
	// Quick).
	Trials int
}

func (p Params) trials() int {
	if p.Trials > 0 {
		return p.Trials
	}
	if p.Quick {
		return 1
	}
	return 3
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the experiment identifier (E1..E13).
	ID string
	// Title is a human-readable summary.
	Title string
	// PaperRef names the theorem/lemma/figure being reproduced.
	PaperRef string
	// Run executes the experiment and returns its tables.
	Run func(p Params) ([]*stats.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		E1(), E2(), E3(), E4(), E5(), E6(),
		E7(), E8(), E9(), E10(), E11(), E12(),
		E13(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// meanOver runs f for the given number of trials with consecutive seeds
// and returns the mean of the returned measurements.
func meanOver(trials int, base int64, f func(seed int64) (float64, error)) (float64, error) {
	var xs []float64
	for t := 0; t < trials; t++ {
		x, err := f(base + int64(t)*101)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return stats.Mean(xs), nil
}
