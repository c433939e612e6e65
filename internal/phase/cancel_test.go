package phase_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
)

// TestExhaustiveCancelledMidWalkEval: the MA search's Eval-only
// objective walks the gray code through the rescoring adapter, which
// polls the budget token before every flip. A token cancelled during
// one evaluation must abort StrategyAuto's exhaustive walk with the
// token's error after at most one further evaluation per worker (the
// shard-opening Set of a shard already claimed).
func TestExhaustiveCancelledMidWalkEval(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "cx8", Inputs: 10, Outputs: 8, Gates: 70, Seed: 503, OrProb: 0.55}).Optimize()
	if k := net.NumOutputs(); k != 8 {
		t.Fatalf("twin has %d outputs, want 8", k)
	}
	const cancelAt = 40
	for _, workers := range []int{1, 4} {
		tok := budget.New(0, 0)
		var calls, atCancel atomic.Int64
		eval := func(r *phase.Result) (float64, error) {
			if n := calls.Add(1); n == cancelAt {
				tok.Cancel(nil)
				atCancel.Store(n)
			}
			return phase.AreaEvaluator(r)
		}
		_, _, _, err := phase.Search(net, phase.SearchOptions{Eval: eval, Workers: workers, Budget: tok})
		if !errors.Is(err, budget.ErrCancelled) {
			t.Fatalf("workers=%d: err = %v, want the token's cancellation", workers, err)
		}
		// Each worker may finish the evaluation it is in and open one
		// more shard before its next poll.
		if extra := calls.Load() - atCancel.Load(); extra > int64(2*workers) {
			t.Errorf("workers=%d: %d evaluations after the cancel, want ≤ %d", workers, extra, 2*workers)
		}
	}
}

// flipCounter wraps a cone table so the test can count (and cancel
// during) the incremental flips of the native state.
type flipCounter struct {
	*power.ConeTable
	flips, atCancel *atomic.Int64
	cancelAt        int64
	tok             *budget.T
}

func (f flipCounter) NewState() phase.ScoreState {
	return &countingState{ScoreState: f.ConeTable.NewState(), f: f}
}

type countingState struct {
	phase.ScoreState
	f flipCounter
}

func (s *countingState) Flip(bit int) float64 {
	if n := s.f.flips.Add(1); n == s.f.cancelAt {
		s.f.tok.Cancel(nil)
		s.f.atCancel.Store(n)
	}
	return s.ScoreState.Flip(bit)
}

// TestExhaustiveCancelledMidWalkConeTable: on the cone table's native
// state the gray walk polls every 4096 flips, so a token cancelled
// mid-walk must stop it within one poll interval, long before the 2^16
// walk completes.
func TestExhaustiveCancelledMidWalkConeTable(t *testing.T) {
	net, table, _ := twinTable(t, gen.Params{Name: "an16", Inputs: 22, Outputs: 16, Gates: 170, Seed: 307, OrProb: 0.6})
	const pollInterval = 4096
	tok := budget.New(0, 0)
	sc := flipCounter{ConeTable: table, flips: new(atomic.Int64), atCancel: new(atomic.Int64), cancelAt: 5000, tok: tok}
	_, _, _, err := phase.Search(net, phase.SearchOptions{
		Strategy: phase.StrategyExhaustive, Scorer: sc, Workers: 1, Budget: tok,
	})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want the token's cancellation", err)
	}
	if extra := sc.flips.Load() - sc.atCancel.Load(); extra > pollInterval {
		t.Errorf("%d flips after the cancel, want ≤ one poll interval (%d)", extra, pollInterval)
	}
}
