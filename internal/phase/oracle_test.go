package phase

import (
	"sort"

	"repro/internal/logic"
	"repro/internal/prob"
)

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

// RandomNoXorNetwork exports randomNoXorNetwork for the phase_test
// package.
var RandomNoXorNetwork = randomNoXorNetwork

// MinPowerOracle is the pairwise heuristic's reference ranking: the
// live pairs in a map, all four combinations of every live pair ranked
// from []bool cone overlaps, and a full sort of every candidate by
// (K, i, j, combo) after each commit. MinPower (StrategyAuto) must
// return its step trace, assignment and score bit for bit. Exported for
// the phase_test package.
func MinPowerOracle(n *logic.Network, opts PowerOptions) (Assignment, float64, []Step, error) {
	k := n.NumOutputs()
	current := opts.Initial.Clone()
	if current == nil {
		current = AllPositive(k)
	}
	res, err := Apply(n, current)
	if err != nil {
		return nil, 0, nil, err
	}
	power, err := opts.scoreResult(res)
	if err != nil {
		return nil, 0, nil, err
	}
	var trace []Step
	if k < 2 {
		return current, power, trace, nil
	}

	type pairKey struct{ i, j int }
	remaining := make(map[pairKey]bool)
	if opts.MaxPairs > 0 {
		for _, pk := range oracleTopOverlapPairs(res.Block, opts.MaxPairs) {
			remaining[pairKey{pk[0], pk[1]}] = true
		}
	} else {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				remaining[pairKey{i, j}] = true
			}
		}
	}

	type cand struct {
		i, j  int
		combo Combo
		k     float64
	}
	rank := func() []cand {
		stats := oracleBlockConeStats(res, opts.InputProbs)
		cands := make([]cand, 0, 4*len(remaining))
		for pk := range remaining {
			for combo := RetainRetain; combo <= InvertInvert; combo++ {
				cands = append(cands, cand{pk.i, pk.j, combo, stats.k(pk.i, pk.j, combo)})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].k != cands[b].k {
				return cands[a].k < cands[b].k
			}
			if cands[a].i != cands[b].i {
				return cands[a].i < cands[b].i
			}
			if cands[a].j != cands[b].j {
				return cands[a].j < cands[b].j
			}
			return cands[a].combo < cands[b].combo
		})
		return cands
	}

	cands := rank()
	pos := 0
	for len(remaining) > 0 {
		for pos < len(cands) && !remaining[pairKey{cands[pos].i, cands[pos].j}] {
			pos++
		}
		if pos >= len(cands) {
			break
		}
		c := cands[pos]
		delete(remaining, pairKey{c.i, c.j})

		candidate := current.Clone()
		if c.combo == InvertRetain || c.combo == InvertInvert {
			candidate[c.i] = !candidate[c.i]
		}
		if c.combo == RetainInvert || c.combo == InvertInvert {
			candidate[c.j] = !candidate[c.j]
		}
		step := Step{I: c.i, J: c.j, Combo: c.combo, K: c.k}
		if c.combo == RetainRetain {
			step.Power = power
			trace = append(trace, step)
			continue
		}
		cPower, cRes, err := opts.scoreCandidate(n, candidate)
		if err != nil {
			return nil, 0, nil, err
		}
		step.Power = cPower
		if cPower < power {
			step.Committed = true
			if cRes == nil {
				if cRes, err = Apply(n, candidate); err != nil {
					return nil, 0, nil, err
				}
			}
			current, res, power = candidate, cRes, cPower
			cands = rank()
			pos = 0
		}
		trace = append(trace, step)
	}
	return current, power, trace, nil
}

// oracleConeStats is the reference form of MinPower's per-output cone
// metrics: []bool membership cones and a lazily filled overlap matrix.
type oracleConeStats struct {
	size    []int
	avg     []float64
	cones   [][]bool
	overlap [][]float64
}

// oracleOutputCones returns every output's fanin cone as a []bool
// membership slice.
func oracleOutputCones(block *logic.Network) [][]bool {
	cones := make([][]bool, block.NumOutputs())
	for i, o := range block.Outputs() {
		cones[i] = block.FaninCone(o.Driver)
	}
	return cones
}

// boolConeOverlap is O(i,j) = |Di ∩ Dj| / (|Di| + |Dj|) over []bool
// cones.
func boolConeOverlap(di, dj []bool) float64 {
	inter, si, sj := 0, 0, 0
	for k := range di {
		if di[k] {
			si++
		}
		if dj[k] {
			sj++
		}
		if di[k] && dj[k] {
			inter++
		}
	}
	if si+sj == 0 {
		return 0
	}
	return float64(inter) / float64(si+sj)
}

func oracleBlockConeStats(res *Result, inputProbs []float64) *oracleConeStats {
	block := res.Block
	probs := prob.Approximate(block, res.BlockInputProbs(inputProbs))
	nOut := block.NumOutputs()
	st := &oracleConeStats{
		size:    make([]int, nOut),
		avg:     make([]float64, nOut),
		cones:   oracleOutputCones(block),
		overlap: make([][]float64, nOut),
	}
	for i, cone := range st.cones {
		sum, cnt := 0.0, 0
		for id, in := range cone {
			if in {
				sum += probs[id]
				cnt++
			}
		}
		st.size[i] = cnt
		if cnt > 0 {
			st.avg[i] = sum / float64(cnt)
		}
	}
	return st
}

func (st *oracleConeStats) o(i, j int) float64 {
	if st.overlap[i] == nil {
		st.overlap[i] = make([]float64, len(st.size))
		for k := range st.overlap[i] {
			st.overlap[i][k] = -1
		}
	}
	if st.overlap[i][j] < 0 {
		st.overlap[i][j] = boolConeOverlap(st.cones[i], st.cones[j])
	}
	return st.overlap[i][j]
}

func (st *oracleConeStats) k(i, j int, combo Combo) float64 {
	ai, aj := st.avg[i], st.avg[j]
	if combo == InvertRetain || combo == InvertInvert {
		ai = 1 - ai
	}
	if combo == RetainInvert || combo == InvertInvert {
		aj = 1 - aj
	}
	return float64(st.size[i])*ai + float64(st.size[j])*aj + 0.5*st.o(i, j)*(ai+aj)
}

// oracleTopOverlapPairs is the reference MaxPairs selection: every pair
// sorted by descending []bool overlap, ties to the lower (i, j).
func oracleTopOverlapPairs(block *logic.Network, max int) [][2]int {
	cones := oracleOutputCones(block)
	type scored struct {
		p [2]int
		o float64
	}
	var all []scored
	for i := 0; i < len(cones); i++ {
		for j := i + 1; j < len(cones); j++ {
			all = append(all, scored{[2]int{i, j}, boolConeOverlap(cones[i], cones[j])})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].o != all[b].o {
			return all[a].o > all[b].o
		}
		if all[a].p[0] != all[b].p[0] {
			return all[a].p[0] < all[b].p[0]
		}
		return all[a].p[1] < all[b].p[1]
	})
	if len(all) > max {
		all = all[:max]
	}
	out := make([][2]int, len(all))
	for i, s := range all {
		out[i] = s.p
	}
	return out
}
