package phase

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/par"
)

// grayMask returns the i-th mask of the reflected gray-code walk.
func grayMask(i int) int { return i ^ (i >> 1) }

// grayBest is one shard's winner; mask is the candidate's plain (not
// gray-counter) mask value, the shared tie-break key.
type grayBest struct {
	mask  int
	score float64
	ok    bool
}

func (b grayBest) better(o grayBest) bool {
	if !b.ok {
		return false
	}
	if !o.ok {
		return true
	}
	if b.score != o.score {
		return b.score < o.score
	}
	return b.mask < o.mask
}

// grayExhaustive enumerates all 2^k assignments along the reflected
// gray-code walk: consecutive candidates differ in exactly one phase
// bit, so each costs one ScoreState.Flip — O(Δ) on an incremental
// scorer, one full Apply + eval through the rescoring adapter for a
// plain scorer or an Eval-only objective (the MA search).
//
// Determinism contract: scores are pure functions of the assignment
// (the incremental contract), each shard walks a contiguous counter
// range of the same fixed gray sequence, and winners reduce under
// "lowest score, then lowest mask" — the total order of an
// ascending-mask scan. The returned (assignment, score) is therefore
// the ascending scan's winner, bit-identical for every worker count
// and shard geometry.
func grayExhaustive(n *logic.Network, opts SearchOptions) (Assignment, *Result, float64, error) {
	k := n.NumOutputs()
	if err := checkMaskWidth(k); err != nil {
		return nil, nil, 0, err
	}
	sc := opts.searchScorer(n)
	// A native state flips in nanoseconds, so the walk polls every 4096
	// flips. The rescoring adapter pays a full evaluation per flip: it
	// polls (and surfaces evaluation errors) after every one, and its
	// 2^k walk is refused outright past 20 outputs.
	pollMask := 0xfff
	if _, ok := sc.(StateScorer); !ok {
		if k > 20 {
			return nil, nil, 0, fmt.Errorf("phase: exhaustive search over %d outputs is infeasible", k)
		}
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
			best := grayBest{mask: grayMask(lo), score: score, ok: true}
			for c := lo + 1; c < hi; c++ {
				if c&pollMask == 0 {
					if err := pollCancel(ctx, opts.Budget); err != nil {
						return grayBest{}, err
					}
					if err := st.Err(); err != nil {
						return grayBest{}, err
					}
				}
				// gray(c−1) and gray(c) differ in bit tz(c).
				score = st.Flip(bits.TrailingZeros(uint(c)))
				if mask := grayMask(c); score < best.score || (score == best.score && mask < best.mask) {
					best = grayBest{mask: mask, score: score, ok: true}
				}
			}
			if err := st.Err(); err != nil {
				return grayBest{}, err
			}
			return best, nil
		})
	if err != nil {
		return nil, nil, 0, err
	}
	var best grayBest
	for _, b := range bests {
		if b.better(best) {
			best = b
		}
	}
	if !best.ok {
		return nil, nil, 0, fmt.Errorf("phase: exhaustive search produced no candidate")
	}
	asg := maskAssignment(best.mask, k)
	res, err := Apply(n, asg)
	if err != nil {
		return nil, nil, 0, err
	}
	return asg, res, best.score, nil
}
