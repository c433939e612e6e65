package phase

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/par"
)

// checkWalk refuses a 2^k walk over more than 20 outputs, whatever
// scores it. Past 62 outputs int mask arithmetic (1 << k, gray
// counters, tie-break masks) would overflow, and below that the walk's
// cost doubles with every output: a native walk over 24 outputs takes
// most of a second, one over 40 would take hours, and through the Eval
// adapter every flip is a full synthesis. Branch-and-bound returns the
// walk's winner bit for bit without the ceiling.
func checkWalk(k int) error {
	if k >= 63 {
		return fmt.Errorf("phase: %d outputs is too large for exhaustive enumeration (int mask arithmetic holds at most 62 phase bits); use the branch-and-bound, annealing, or greedy strategies", k)
	}
	if k > 20 {
		return fmt.Errorf("phase: exhaustive search over %d outputs is infeasible", k)
	}
	return nil
}

// grayMask returns the i-th mask of the reflected gray-code walk.
func grayMask(i int) int { return i ^ (i >> 1) }

// grayBest is one shard's winner; mask is the candidate's plain (not
// gray-counter) mask value, the shared tie-break key.
type grayBest struct {
	mask  int
	score float64
}

// better is the ascending-mask scan's order: lower score, then lower
// mask.
func (b grayBest) better(o grayBest) bool {
	return b.score < o.score || (b.score == o.score && b.mask < o.mask)
}

// grayExhaustive enumerates all 2^k assignments along the reflected
// gray-code walk: consecutive candidates differ in exactly one phase
// bit, so each costs one ScoreState.Flip — O(Δ) on an incremental
// scorer, one full rescore through the rescoring adapter for a plain
// scorer or an Eval-only objective.
//
// Determinism contract: scores are pure functions of the assignment
// (the incremental contract), each shard walks a contiguous counter
// range of the same fixed gray sequence, and winners reduce under
// "lowest score, then lowest mask" — the total order of an
// ascending-mask scan. The returned (assignment, score) is therefore
// the ascending scan's winner, bit-identical for every worker count
// and shard geometry.
func grayExhaustive(k int, sc AssignmentScorer, opts SearchOptions) (Assignment, float64, error) {
	if err := checkWalk(k); err != nil {
		return nil, 0, err
	}
	// A native state flips in nanoseconds, so the walk polls every 4096
	// flips. The rescoring adapter pays a full evaluation per flip: it
	// polls (and surfaces evaluation errors) after every one.
	pollMask := 0xfff
	if _, ok := sc.(StateScorer); !ok {
		pollMask = 0
	}
	total := 1 << uint(k)
	w := par.Workers(opts.Workers)
	ranges := par.SplitRange(total, w*4)
	bests, err := par.Map(context.Background(), len(ranges), w,
		func(ctx context.Context, s int) (grayBest, error) {
			st := newState(sc)
			buf := make(Assignment, k)
			lo, hi := ranges[s][0], ranges[s][1]
			buf.SetMask(grayMask(lo))
			score, err := st.Set(buf)
			if err != nil {
				return grayBest{}, err
			}
			best := grayBest{mask: grayMask(lo), score: score}
			for c := lo + 1; c < hi; c++ {
				if c&pollMask == 0 {
					if err := opts.Budget.Poll(ctx); err != nil {
						return grayBest{}, err
					}
					if err := st.Err(); err != nil {
						return grayBest{}, err
					}
				}
				// gray(c−1) and gray(c) differ in bit tz(c).
				b := grayBest{mask: grayMask(c), score: st.Flip(bits.TrailingZeros(uint(c)))}
				if b.better(best) {
					best = b
				}
			}
			if err := st.Err(); err != nil {
				return grayBest{}, err
			}
			return best, nil
		})
	if err != nil {
		return nil, 0, err
	}
	// Every shard holds at least one candidate: SplitRange never returns
	// more ranges than the 2^k ≥ 1 candidates.
	best := bests[0]
	for _, b := range bests[1:] {
		if b.better(best) {
			best = b
		}
	}
	return maskAssignment(best.mask, k), best.score, nil
}
