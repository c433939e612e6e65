package phase

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/par"
)

// atomicMinFloat is a lock-free monotone-decreasing float64: the shared
// incumbent bound of the parallel branch-and-bound. Because it is only
// ever used with a STRICT > comparison for pruning, any momentarily
// stale value merely prunes less — the search outcome never depends on
// the timing of updates (see the determinism argument on
// branchBoundSearch).
type atomicMinFloat struct{ bits atomic.Uint64 }

func (m *atomicMinFloat) store(x float64) { m.bits.Store(math.Float64bits(x)) }
func (m *atomicMinFloat) load() float64   { return math.Float64frombits(m.bits.Load()) }
func (m *atomicMinFloat) min(x float64) {
	for {
		cur := m.bits.Load()
		if x >= math.Float64frombits(cur) {
			return
		}
		if m.bits.CompareAndSwap(cur, math.Float64bits(x)) {
			return
		}
	}
}

// bbBest is one subtree's winner. Assignments (not int masks) carry the
// tie-break so branch-and-bound has no 2^k mask-arithmetic ceiling.
type bbBest struct {
	asg   Assignment
	score float64
	ok    bool
}

// branchBoundSearch is the exact search: depth-first over phase bits in
// descending bit order (bit k−1 first, positive before negative), pruned
// by the scorer's admissible PrefixBound. Requires a BoundScorer
// (power.ConeTable); at full depth the bound IS the exact score, so
// leaves cost nothing beyond the incremental Decide work.
//
// Determinism and exactness contract:
//
//   - Descending-bit/positive-first DFS visits leaves in ascending mask
//     order, so keeping the first strict improvement reproduces the
//     ascending scan's "lowest mask wins ties" rule.
//   - The search is seeded with the all-positive assignment (mask 0, the
//     lowest mask of all), and subtrees prune on bound ≥ local incumbent:
//     pruned completions score no better than an already-kept candidate
//     at a lower mask, so they could never have won.
//   - Shards are the 2^s subtrees of the first s decided bits, reduced
//     in subtree (= ascending mask-range) order. The shared cross-shard
//     incumbent prunes only on STRICT bound >, which can never eliminate
//     a candidate tied with the eventual winner, so scheduling cannot
//     change the outcome: the returned (assignment, score) is
//     bit-identical to StrategyExhaustive's at every worker count.
func branchBoundSearch(n *logic.Network, opts SearchOptions) (Assignment, *Result, float64, error) {
	scorer := opts.Scorer
	bs, ok := scorer.(BoundScorer)
	if !ok {
		return nil, nil, 0, fmt.Errorf("phase: branch-and-bound requires a scorer with admissible prefix bounds (power.ConeTable); got %T", scorer)
	}
	k := n.NumOutputs()
	seedAsg := AllPositive(k)
	seedScore, err := scorer.ScoreAssignment(seedAsg)
	if err != nil {
		return nil, nil, 0, err
	}
	if k == 0 {
		res, err := Apply(n, seedAsg)
		return seedAsg, res, seedScore, err
	}

	// Subtree shards: the first s decided bits. Oversplit like the other
	// sharded searches so uneven pruning load-balances.
	w := par.Workers(opts.Workers)
	s := 0
	for 1<<uint(s) < w*4 && s < k && s < 10 {
		s++
	}
	var shared atomicMinFloat
	shared.store(seedScore)

	results, err := par.Map(context.Background(), 1<<uint(s), w,
		func(ctx context.Context, sub int) (bbBest, error) {
			if err := pollCancel(ctx, opts.Budget); err != nil {
				return bbBest{}, err
			}
			pb := bs.NewBound()
			asg := make(Assignment, k)
			best := bbBest{score: seedScore} // phantom incumbent: the seed
			// Fix the subtree prefix: subtree index bit s−1−d drives
			// decided bit k−1−d, so subtree order is ascending mask-range
			// order.
			bound := 0.0
			for d := 0; d < s; d++ {
				neg := sub>>(uint(s-1-d))&1 == 1
				asg[k-1-d] = neg
				bound = pb.Decide(neg)
			}
			if bound >= best.score || bound > shared.load() {
				return bbBest{}, nil
			}
			var rec func(d int) error
			rec = func(d int) error {
				if d == k {
					// Full depth: the bound is the exact score.
					if bound < best.score {
						best = bbBest{asg: asg.Clone(), score: bound, ok: true}
						shared.min(bound)
					}
					return nil
				}
				if d&7 == 0 {
					if err := pollCancel(ctx, opts.Budget); err != nil {
						return err
					}
				}
				bit := k - 1 - d
				for _, neg := range [2]bool{false, true} {
					asg[bit] = neg
					bound = pb.Decide(neg)
					if bound < best.score && !(bound > shared.load()) {
						if err := rec(d + 1); err != nil {
							return err
						}
					}
					pb.Undo()
				}
				asg[bit] = false
				return nil
			}
			if err := rec(s); err != nil {
				return bbBest{}, err
			}
			return best, nil
		})
	if err != nil {
		return nil, nil, 0, err
	}

	// Reduce in subtree order; the seed candidate (mask 0) wins all ties
	// since no mask is lower.
	winner := bbBest{asg: seedAsg, score: seedScore, ok: true}
	for _, b := range results {
		if b.ok && b.score < winner.score {
			winner = b
		}
	}
	res, err := Apply(n, winner.asg)
	if err != nil {
		return nil, nil, 0, err
	}
	return winner.asg, res, winner.score, nil
}
