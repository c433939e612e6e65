package phase

import "repro/internal/logic"

// AscendingScan is the exhaustive searches' reference oracle: a plain
// single-goroutine loop over every mask in ascending order, each scored
// from scratch by the objective Search would use (opts.Scorer, else
// opts.Eval, else AreaEvaluator), keeping the lowest score and, on ties,
// the lowest mask. The gray walk and branch-and-bound must return its
// (assignment, score) bit-for-bit at every worker count. Exported for
// the phase_test package.
func AscendingScan(n *logic.Network, opts SearchOptions) (Assignment, float64, error) {
	opts.defaults()
	sc := opts.searchScorer(n)
	k := n.NumOutputs()
	var bestAsg Assignment
	best := 0.0
	for mask := 0; mask < 1<<uint(k); mask++ {
		asg := maskAssignment(mask, k)
		score, err := sc.ScoreAssignment(asg)
		if err != nil {
			return nil, 0, err
		}
		if bestAsg == nil || score < best {
			best, bestAsg = score, asg
		}
	}
	return bestAsg, best, nil
}
