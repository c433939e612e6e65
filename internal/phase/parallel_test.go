package phase

import (
	"fmt"
	"math/rand"
	"testing"
)

func assignmentsEqual(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExhaustiveParallelMatchesSequential: the sharded gray walk over an
// Eval-only objective (the rescoring adapter) must reproduce the
// ascending scan's (assignment, score) at every worker count.
func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		n := randomNoXorNetwork(rng, 3+rng.Intn(4), 10+rng.Intn(40), 2+rng.Intn(5))
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = 0.1 + 0.8*rng.Float64()
		}
		for _, eval := range []struct {
			name string
			fn   Evaluator
		}{{"area", AreaEvaluator}, {"switching", switchingEvaluator(probs)}} {
			wantAsg, wantScore, err := AscendingScan(n, SearchOptions{Eval: eval.fn})
			if err != nil {
				t.Fatalf("trial %d %s: sequential: %v", trial, eval.name, err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				asg, res, score, err := Search(n, SearchOptions{Strategy: StrategyExhaustive, Eval: eval.fn, Workers: workers})
				if err != nil {
					t.Fatalf("trial %d %s workers=%d: %v", trial, eval.name, workers, err)
				}
				if score != wantScore {
					t.Errorf("trial %d %s workers=%d: score %v != sequential %v",
						trial, eval.name, workers, score, wantScore)
				}
				if !assignmentsEqual(asg, wantAsg) {
					t.Errorf("trial %d %s workers=%d: assignment %s != sequential %s",
						trial, eval.name, workers, asg, wantAsg)
				}
				if res == nil {
					t.Fatalf("trial %d %s workers=%d: nil result", trial, eval.name, workers)
				}
			}
		}
	}
}

func TestExhaustiveParallelTieBreaksToLowestMask(t *testing.T) {
	// A constant evaluator makes every one of the 2^k assignments tie; the
	// winner must be mask 0 (all positive) at every worker count.
	rng := rand.New(rand.NewSource(73))
	n := randomNoXorNetwork(rng, 4, 20, 6)
	flat := func(*Result) (float64, error) { return 42, nil }
	for _, workers := range []int{1, 2, 5, 16} {
		asg, _, score, err := Search(n, SearchOptions{Strategy: StrategyExhaustive, Eval: flat, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if score != 42 {
			t.Errorf("workers=%d: score = %v", workers, score)
		}
		if !assignmentsEqual(asg, AllPositive(6)) {
			t.Errorf("workers=%d: tie broke to %s, want %s (lowest mask)", workers, asg, AllPositive(6))
		}
	}
}

func TestExhaustiveParallelPropagatesEvalError(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	n := randomNoXorNetwork(rng, 3, 12, 4)
	boom := func(r *Result) (float64, error) {
		if r.OutputInverterCount() > 0 {
			return 0, fmt.Errorf("evaluator rejected %s", r.Assignment)
		}
		return 1, nil
	}
	for _, workers := range []int{1, 4} {
		if _, _, _, err := Search(n, SearchOptions{Strategy: StrategyExhaustive, Eval: boom, Workers: workers}); err == nil {
			t.Errorf("workers=%d: evaluator error swallowed", workers)
		}
	}
}

func TestGreedyDescentWorkersInvariant(t *testing.T) {
	// The greedy path (forced by ExhaustiveLimit 1) must return the same
	// (assignment, score) for every worker count at a fixed seed.
	rng := rand.New(rand.NewSource(83))
	n := randomNoXorNetwork(rng, 6, 50, 5)
	base := SearchOptions{ExhaustiveLimit: 1, Restarts: 4, Seed: 11}
	wantAsg, _, wantScore, err := MinArea(n, base)
	if err != nil {
		t.Fatalf("workers=default: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		opts := base
		opts.Workers = workers
		asg, _, score, err := MinArea(n, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if score != wantScore || !assignmentsEqual(asg, wantAsg) {
			t.Errorf("workers=%d: (%s, %v) != (%s, %v)", workers, asg, score, wantAsg, wantScore)
		}
	}
}
