package phase

import (
	"repro/internal/budget"
	"repro/internal/logic"
)

// Evaluator scores a synthesized block; lower is better. MinArea uses a
// cell-count evaluator, MinPower a power estimate.
type Evaluator func(*Result) (float64, error)

// AssignmentScorer scores a phase assignment directly — without
// synthesizing a Result — from state precomputed once per network (see
// power.ConeTable for the power instance). Searches that accept one call
// Apply only on the assignments they keep, which is what turns the
// 2^k·(Apply+Estimate) exhaustive search into 2k cone evaluations plus
// cheap arithmetic per mask.
//
// ScoreAssignment must be a pure function of the assignment: the same
// assignment always yields the bit-identical score, regardless of call
// order — that is what keeps sharded searches deterministic. It must
// also be safe for concurrent use: every worker of a sharded search
// scores through the one shared scorer.
type AssignmentScorer interface {
	ScoreAssignment(asg Assignment) (float64, error)
}

// AreaEvaluator scores a result by block gate count plus boundary
// inverters — the standard-cell count proxy used for the "MA" baseline.
func AreaEvaluator(r *Result) (float64, error) {
	return float64(r.Block.GateCount() + r.InputInverterCount() + r.OutputInverterCount()), nil
}

// SetMask expands mask bit i into the phase of output i, reusing the
// receiver — the per-mask Assignment allocation this avoids used to
// dominate scored-search shard time. Masks hold at most 62 phase bits
// (see checkWalk).
func (a Assignment) SetMask(mask int) {
	for i := range a {
		a[i] = mask&(1<<uint(i)) != 0
	}
}

// maskAssignment expands mask bit i into the phase of output i.
func maskAssignment(mask, k int) Assignment {
	asg := make(Assignment, k)
	asg.SetMask(mask)
	return asg
}

// SearchOptions' defaults for a zero ExhaustiveLimit and Restarts.
const (
	DefaultExhaustiveLimit = 12
	DefaultRestarts        = 3
)

// SearchOptions configures Search (and its MinArea alias).
type SearchOptions struct {
	// Strategy selects the search implementation (see SearchStrategy).
	// The zero value, StrategyAuto, keeps the historical dispatch:
	// exhaustive up to ExhaustiveLimit outputs, greedy descent beyond.
	Strategy SearchStrategy
	// ExhaustiveLimit: under StrategyAuto, exhaustive search is used when
	// the output count is at most this (default DefaultExhaustiveLimit).
	ExhaustiveLimit int
	// Restarts is the number of random restarts for the greedy descent
	// (default DefaultRestarts, plus the all-positive start) and, for
	// StrategyAnneal, the number of extra annealing chains.
	Restarts int
	// Initial, when non-nil, replaces the all-positive assignment as the
	// first greedy start / annealing chain's start. The exact strategies
	// (exhaustive, branch-and-bound) ignore it — their result does not
	// depend on a starting point.
	Initial Assignment
	// Seed drives the random restarts and annealing chains.
	Seed int64
	// AnnealSteps is the proposal count per annealing chain (default
	// 400·k).
	AnnealSteps int
	// Eval overrides the objective (default AreaEvaluator).
	Eval Evaluator
	// Scorer, when set, overrides Eval: candidate assignments are scored
	// directly (no per-candidate Apply) and only kept assignments are
	// synthesized. Scorers implementing StateScorer additionally give
	// every strategy O(Δ)-per-flip incremental scoring, and BoundScorers
	// unlock StrategyBranchBound.
	Scorer AssignmentScorer
	// Workers bounds the search's worker pool (0 = GOMAXPROCS, 1 =
	// sequential). The result is identical for every worker count; Eval
	// must be safe for concurrent use on distinct Results when > 1.
	Workers int
	// Budget is the cancellation/budget token every strategy polls at a
	// bounded interval (per flip batch, subtree, or proposal batch; per
	// candidate when Eval scores through the rescoring adapter). A
	// cancelled token aborts the search with its error. Nil means never
	// cancelled. It does not alter results while live.
	Budget *budget.T
}

func (o *SearchOptions) defaults() {
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = DefaultExhaustiveLimit
	}
	if o.Restarts == 0 {
		o.Restarts = DefaultRestarts
	}
	if o.Eval == nil {
		o.Eval = AreaEvaluator
	}
}

// MinArea finds a phase assignment minimizing cell count, the baseline
// "MA" flow of the paper (Puri et al. [15] report an exact algorithm; we
// use exhaustive search where feasible — it is exact — and greedy descent
// with restarts beyond that). Despite the name it is a generic search
// driver: SearchOptions.Eval or .Scorer swaps in any objective and
// SearchOptions.Strategy any of the pluggable searches — MinArea is
// Search under its historical name.
func MinArea(n *logic.Network, opts SearchOptions) (Assignment, *Result, float64, error) {
	return Search(n, opts)
}
