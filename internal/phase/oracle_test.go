package phase

import (
	"fmt"
	"math"
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
	sc := objective(n, opts.Scorer, opts.Eval)
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

// scoreResult scores an already synthesized assignment under the
// options' objective (Scorer wins over Evaluate).
func (o *PowerOptions) scoreResult(res *Result) (float64, error) {
	if o.Scorer != nil {
		return o.Scorer.ScoreAssignment(res.Assignment)
	}
	return o.Evaluate(res)
}

// scoreCandidate scores a trial assignment; the Result is synthesized
// only on the evaluator path (nil otherwise — commit paths Apply lazily).
func (o *PowerOptions) scoreCandidate(n *logic.Network, asg Assignment) (float64, *Result, error) {
	if o.Scorer != nil {
		score, err := o.Scorer.ScoreAssignment(asg)
		return score, nil, err
	}
	res, err := Apply(n, asg)
	if err != nil {
		return 0, nil, err
	}
	score, err := o.Evaluate(res)
	return score, res, err
}

// MinPowerOracle is the pairwise heuristic's reference ranking: the
// live pairs in a map, all four combinations of every live pair ranked
// from []bool cone overlaps of the current assignment's own block
// (re-Applied after each commit), and a full sort of every candidate by
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
		cnt := 0
		for _, in := range cone {
			if in {
				cnt++
			}
		}
		st.size[i] = cnt
		if cnt > 0 {
			st.avg[i] = oraclePostOrderSum(block, block.Outputs()[i].Driver, probs) / float64(cnt)
		}
	}
	return st
}

// oraclePostOrderSum sums probs over root's fanin cone in driver-rooted
// DFS post-order: fanins in order, each node once.
func oraclePostOrderSum(block *logic.Network, root logic.NodeID, probs []float64) float64 {
	seen := make([]bool, block.NumNodes())
	sum := 0.0
	var visit func(id logic.NodeID)
	visit = func(id logic.NodeID) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, f := range block.Fanins(id) {
			visit(f)
		}
		sum += probs[id]
	}
	visit(root)
	return sum
}

// UnionStatsDiff checks MinPower's union premise at one assignment:
// the union statistics read at asg's phases must equal the statistics
// of Apply(n, asg)'s own block bit for bit — every |Di| and Ai (the
// oracle's), and O(i,j) (logic.ConeOverlap of the block's bitset cones)
// as float bits for every pair. It returns the first difference, or ""
// when there is none. Exported for the phase_test package.
func UnionStatsDiff(n *logic.Network, asg Assignment, inputProbs []float64) (string, error) {
	union, err := newUnionStats(n, inputProbs)
	if err != nil {
		return "", err
	}
	res, err := Apply(n, asg)
	if err != nil {
		return "", err
	}
	block := oracleBlockConeStats(res, inputProbs)
	cones := res.Block.OutputCones()
	for i := range asg {
		ui := union.at(asg, i)
		if union.size[ui] != block.size[i] {
			return fmt.Sprintf("|D%d| = %d, block %d", i, union.size[ui], block.size[i]), nil
		}
		if math.Float64bits(union.avg[ui]) != math.Float64bits(block.avg[i]) {
			return fmt.Sprintf("A%d = %v, block %v", i, union.avg[ui], block.avg[i]), nil
		}
		for j := i + 1; j < len(asg); j++ {
			o, want := logic.ConeOverlap(union.cones[ui], union.cones[union.at(asg, j)]), logic.ConeOverlap(cones[i], cones[j])
			if math.Float64bits(o) != math.Float64bits(want) {
				return fmt.Sprintf("O(%d,%d) = %v, block %v", i, j, o, want), nil
			}
		}
	}
	return "", nil
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
