package phase

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/par"
)

// searchOutcome is one restart's, chain's or subtree's result, reduced
// in start order.
type searchOutcome struct {
	asg   Assignment
	score float64
}

// reduceOutcomes folds outcomes in start order, earlier ones winning
// ties — the rule that makes every restart-parallel search match its
// sequential run exactly, and branch-and-bound's subtrees reproduce the
// ascending scan's lowest-mask tie-break.
func reduceOutcomes(outcomes []searchOutcome) searchOutcome {
	best := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.score < best.score {
			best = o
		}
	}
	return best
}

// descendState runs first-improvement hill climbing over single output
// flips on an incremental state until no flip improves. asg is mutated
// to the reached local minimum; the final score is returned. Each trial
// flip costs one Flip (O(Δ) on the cone-table state) instead of a full
// rescore.
func descendState(st ScoreState, asg Assignment, score float64, tok *budget.T) (float64, error) {
	improved := true
	for improved {
		// One cancellation poll per sweep bounds the latency at k flips.
		if err := tok.Err(); err != nil {
			return 0, err
		}
		improved = false
		//dominolint:budget-ok bounded at k O(1) flips per sweep; the enclosing loop polls once per sweep
		for i := range asg {
			if s := st.Flip(i); s < score {
				asg[i] = !asg[i]
				score = s
				improved = true
			} else {
				st.Flip(i) // revert
			}
		}
	}
	return score, nil
}

// MaxRestarts is the largest Restarts flow.Config.Validate accepts from
// an untrusted configuration (as SearchRestarts). greedyStarts builds
// every start before the search first polls its budget token, and
// annealing allocates one outcome per chain, so memory grows linearly
// with Restarts.
const MaxRestarts = 1024

// greedyStarts generates the canonical restart set: the base start (the
// all-positive assignment, or Initial when set) plus Restarts random
// draws from the seeded rng, in a fixed order regardless of worker
// count.
func greedyStarts(k int, opts SearchOptions) []Assignment {
	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([]Assignment, 0, opts.Restarts+1)
	if len(opts.Initial) == k {
		starts = append(starts, opts.Initial.Clone())
	} else {
		starts = append(starts, AllPositive(k))
	}
	for restart := 0; restart < opts.Restarts; restart++ {
		asg := make(Assignment, k)
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		starts = append(starts, asg)
	}
	return starts
}

// greedySearch is multi-restart first-improvement descent — the
// historical wide-interface fallback, rebuilt on ScoreState so a trial
// flip reprices only what it touches. Starts are generated up front in
// a fixed order, descended concurrently, and reduced in start order
// with earlier starts winning ties, so the outcome matches a sequential
// run of the same starts exactly, at any worker count.
func greedySearch(k int, sc AssignmentScorer, opts SearchOptions) (Assignment, float64, error) {
	starts := greedyStarts(k, opts)
	outcomes, err := par.Map(context.Background(), len(starts), opts.Workers,
		func(ctx context.Context, s int) (searchOutcome, error) {
			if err := opts.Budget.Poll(ctx); err != nil {
				return searchOutcome{}, err
			}
			st := newState(sc)
			asg := starts[s]
			score, err := st.Set(asg)
			if err != nil {
				return searchOutcome{}, err
			}
			score, err = descendState(st, asg, score, opts.Budget)
			if err != nil {
				return searchOutcome{}, err
			}
			if err := st.Err(); err != nil {
				return searchOutcome{}, err
			}
			return searchOutcome{asg: asg, score: score}, nil
		})
	if err != nil {
		return nil, 0, err
	}
	best := reduceOutcomes(outcomes)
	return best.asg, best.score, nil
}

// annealSearch is seeded simulated annealing over single-bit flips:
// Restarts+1 independent chains (chain 0 starts all-positive — or from
// SearchOptions.Initial when set — and the rest from their own seeded
// rng), each running AnnealSteps proposals under
// a geometric cooling schedule calibrated from the chain's own probe of
// per-flip |Δscore|, followed by a greedy polish of the best visited
// assignment. Each proposal costs one Flip.
//
// Determinism: chain c's rng is seeded as Seed + c·annealSeedStride and
// consumed in a fixed order, chains run concurrently but reduce in
// chain order (earlier chains win ties), so the outcome is a pure
// function of (Seed, Restarts, AnnealSteps, scorer) — never of Workers.
func annealSearch(k int, sc AssignmentScorer, opts SearchOptions) (Assignment, float64, error) {
	if k == 0 {
		return nil, 0, fmt.Errorf("phase: network has no outputs")
	}
	steps := opts.AnnealSteps
	if steps <= 0 {
		steps = 400 * k
	}
	chains := opts.Restarts + 1

	const annealSeedStride = 0x9E3779B97F4A7C15 >> 1 // fixed odd-ish stride keeps chain seeds distinct
	outcomes, err := par.Map(context.Background(), chains, opts.Workers,
		func(ctx context.Context, c int) (searchOutcome, error) {
			rng := rand.New(rand.NewSource(opts.Seed + int64(c)*annealSeedStride))
			st := newState(sc)
			asg := make(Assignment, k)
			if c > 0 {
				for i := range asg {
					asg[i] = rng.Intn(2) == 1
				}
			} else if len(opts.Initial) == k {
				copy(asg, opts.Initial)
			}
			cur, err := st.Set(asg)
			if err != nil {
				return searchOutcome{}, err
			}
			best := cur
			bestAsg := asg.Clone()

			// Calibrate the starting temperature from the mean |Δ| of the
			// k single-bit probes (flip + revert leaves cur exact — the
			// incremental contract guarantees the score returns
			// bit-identically).
			sum := 0.0
			for i := 0; i < k; i++ {
				d := st.Flip(i) - cur
				st.Flip(i)
				sum += math.Abs(d)
			}
			t := 2 * sum / float64(k)
			if t <= 0 {
				t = 1e-9
			}
			alpha := math.Pow(1e-3, 1/float64(steps))

			for step := 0; step < steps; step++ {
				if step&0xff == 0 {
					if err := opts.Budget.Poll(ctx); err != nil {
						return searchOutcome{}, err
					}
				}
				bit := rng.Intn(k)
				next := st.Flip(bit)
				d := next - cur
				if d <= 0 || rng.Float64() < math.Exp(-d/t) {
					asg[bit] = !asg[bit]
					cur = next
					if cur < best {
						best = cur
						copy(bestAsg, asg)
					}
				} else {
					st.Flip(bit) // reject: revert
				}
				t *= alpha
			}

			// Greedy polish: descend the best visited assignment to its
			// local minimum.
			score, err := st.Set(bestAsg)
			if err != nil {
				return searchOutcome{}, err
			}
			score, err = descendState(st, bestAsg, score, opts.Budget)
			if err != nil {
				return searchOutcome{}, err
			}
			if err := st.Err(); err != nil {
				return searchOutcome{}, err
			}
			return searchOutcome{asg: bestAsg, score: score}, nil
		})
	if err != nil {
		return nil, 0, err
	}
	best := reduceOutcomes(outcomes)
	return best.asg, best.score, nil
}
