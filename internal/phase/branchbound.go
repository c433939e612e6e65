package phase

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

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
func branchBoundSearch(k int, sc AssignmentScorer, opts SearchOptions) (Assignment, float64, error) {
	bs, ok := sc.(BoundScorer)
	if !ok {
		return nil, 0, fmt.Errorf("phase: branch-and-bound requires a scorer with admissible prefix bounds (power.ConeTable); got %T", sc)
	}
	seed := searchOutcome{asg: AllPositive(k)}
	var err error
	if seed.score, err = bs.ScoreAssignment(seed.asg); err != nil || k == 0 {
		// With no bit to decide, the seed is the only candidate.
		return seed.asg, seed.score, err
	}

	// Subtree shards: the first s decided bits. Oversplit like the other
	// sharded searches so uneven pruning load-balances.
	w := par.Workers(opts.Workers)
	s := 0
	for 1<<uint(s) < w*4 && s < k && s < 10 {
		s++
	}
	var shared atomicMinFloat
	shared.store(seed.score)

	results, err := par.Map(context.Background(), 1<<uint(s), w,
		func(ctx context.Context, sub int) (searchOutcome, error) {
			if err := opts.Budget.Poll(ctx); err != nil {
				return searchOutcome{}, err
			}
			pb := bs.NewBound()
			asg := make(Assignment, k)
			// The phantom incumbent: the seed's score, without its
			// assignment. A subtree that never beats it loses the tie to
			// the seed in the reduction.
			best := searchOutcome{score: seed.score}
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
				return best, nil
			}
			var rec func(d int) error
			rec = func(d int) error {
				if d == k {
					// Full depth: the bound is the exact score.
					if bound < best.score {
						best = searchOutcome{asg: asg.Clone(), score: bound}
						shared.min(bound)
					}
					return nil
				}
				if d&7 == 0 {
					if err := opts.Budget.Poll(ctx); err != nil {
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
				return searchOutcome{}, err
			}
			return best, nil
		})
	if err != nil {
		return nil, 0, err
	}
	// The seed (mask 0, the lowest of all) leads the subtrees, which
	// follow in ascending mask-range order: ties go to the seed, then to
	// the earlier subtree.
	best := reduceOutcomes(append([]searchOutcome{seed}, results...))
	return best.asg, best.score, nil
}
