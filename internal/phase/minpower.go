package phase

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/budget"
	"repro/internal/logic"
	"repro/internal/prob"
)

// Combo identifies one of the four phase combinations the paper's cost
// function K ranks for an output pair (Section 4.1). Following the
// paper's notation, '+' means retaining the output's current phase and
// '-' means inverting it — not absolute polarity.
type Combo uint8

// The four pair combinations.
const (
	RetainRetain Combo = iota // K(i+, j+)
	RetainInvert              // K(i+, j-)
	InvertRetain              // K(i-, j+)
	InvertInvert              // K(i-, j-)
)

// String renders the combo in the paper's notation.
func (c Combo) String() string {
	switch c {
	case RetainRetain:
		return "(i+,j+)"
	case RetainInvert:
		return "(i+,j-)"
	case InvertRetain:
		return "(i-,j+)"
	case InvertInvert:
		return "(i-,j-)"
	}
	return "(?)"
}

// Step records one iteration of the MinPower heuristic for reporting and
// tests.
type Step struct {
	I, J      int   // output indexes of the pair tried
	Combo     Combo // chosen combination
	K         float64
	Power     float64 // measured power of the candidate synthesis
	Committed bool
}

// PowerOptions configures MinPower.
type PowerOptions struct {
	// InputProbs gives the signal probability of each original primary
	// input (by position). Required.
	InputProbs []float64
	// Evaluate measures the power of a candidate synthesis. Required
	// unless Scorer is set.
	Evaluate Evaluator
	// Scorer, when set, scores candidate assignments directly from
	// per-cone precomputed state (see power.ConeTable) instead of
	// synthesizing and estimating every trial; Apply then runs only on
	// committed assignments. Scorer takes precedence over Evaluate for
	// all candidate scoring.
	Scorer AssignmentScorer
	// Initial is the starting assignment (default all-positive).
	Initial Assignment
	// MaxPairs bounds the candidate pair set for very wide interfaces; 0
	// means all pairs. When bounded, pairs with the largest cone overlap
	// are kept, since those are the ones whose phase interaction matters.
	MaxPairs int
	// Strategy, when not StrategyAuto, replaces the pairwise heuristic
	// with the selected search strategy (gray-code exhaustive, exact
	// branch-and-bound, annealing, or multi-restart greedy) run over
	// Scorer — or over Evaluate through a synthesize-and-score adapter
	// when no Scorer is set. The step trace is then empty. Initial seeds
	// the heuristic strategies' first start; the exact strategies ignore
	// it (their result does not depend on a starting point).
	Strategy SearchStrategy
	// SearchWorkers, SearchSeed, SearchRestarts, and AnnealSteps
	// parameterize the strategy path (see the SearchOptions fields of the
	// same names); all are ignored under StrategyAuto.
	SearchWorkers  int
	SearchSeed     int64
	SearchRestarts int
	AnnealSteps    int
	// Budget is the cancellation/budget token the search polls — per
	// candidate pair on the pairwise heuristic, at each strategy's own
	// bounded interval on the strategy path.
	Budget *budget.T
}

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

// MinPower runs the paper's power-driven phase assignment heuristic:
//
//  1. start from an arbitrary assignment;
//  2. for every candidate output pair compute the cost K of the four
//     phase combinations from cone sizes |D|, average cone probabilities
//     A (flipped per Property 4.1 for the inverted options) and the
//     overlap penalty O(i,j);
//  3. synthesize the minimum-cost combination (ties to the lower pair
//     (i, j), then the lower Combo) and measure its power;
//  4. commit if power decreased, and in either case retire the pair;
//  5. repeat until no candidate pairs remain.
//
// It returns the final assignment, its synthesis, its measured power and
// the step trace.
func MinPower(n *logic.Network, opts PowerOptions) (Assignment, *Result, float64, []Step, error) {
	if len(opts.InputProbs) != n.NumInputs() {
		return nil, nil, 0, nil, fmt.Errorf("phase: %d input probs for %d inputs", len(opts.InputProbs), n.NumInputs())
	}
	if opts.Evaluate == nil && opts.Scorer == nil {
		return nil, nil, 0, nil, fmt.Errorf("phase: PowerOptions.Evaluate or Scorer is required")
	}
	if opts.Strategy != StrategyAuto {
		asg, res, score, err := Search(n, SearchOptions{
			Strategy:    opts.Strategy,
			Scorer:      opts.Scorer,
			Eval:        opts.Evaluate,
			Initial:     opts.Initial,
			Workers:     opts.SearchWorkers,
			Seed:        opts.SearchSeed,
			Restarts:    opts.SearchRestarts,
			AnnealSteps: opts.AnnealSteps,
			Budget:      opts.Budget,
		})
		return asg, res, score, nil, err
	}
	k := n.NumOutputs()
	current := opts.Initial.Clone()
	if current == nil {
		current = AllPositive(k)
	}
	if len(current) != k {
		return nil, nil, 0, nil, fmt.Errorf("phase: initial assignment length %d, want %d", len(current), k)
	}
	res, err := Apply(n, current)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	power, err := opts.scoreResult(res)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	var trace []Step
	if k < 2 {
		return current, res, power, trace, nil
	}

	var live pairHeap
	if opts.MaxPairs > 0 {
		live = topOverlapPairs(res.Block, opts.MaxPairs)
	} else {
		live = make(pairHeap, 0, k*(k-1)/2)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				live = append(live, livePair{i: i, j: j})
			}
		}
	}

	// rank re-prices every live pair for the *current* synthesis and
	// re-heapifies; it runs after every commit (an uncommitted trial
	// leaves the circuit, hence every K, unchanged).
	rank := func() {
		stats := blockConeStats(res, opts.InputProbs)
		for x := range live {
			p := &live[x]
			p.combo, p.k = stats.best(p.i, p.j)
		}
		heap.Init(&live)
	}

	rank()
	for live.Len() > 0 {
		if err := opts.Budget.Err(); err != nil {
			return nil, nil, 0, nil, err
		}
		c := heap.Pop(&live).(livePair)

		candidate := current.Clone()
		if c.combo == InvertRetain || c.combo == InvertInvert {
			candidate[c.i] = !candidate[c.i]
		}
		if c.combo == RetainInvert || c.combo == InvertInvert {
			candidate[c.j] = !candidate[c.j]
		}
		step := Step{I: c.i, J: c.j, Combo: c.combo, K: c.k}
		if c.combo == RetainRetain {
			// Retaining both phases is a no-op synthesis; it can never
			// strictly decrease power, so record and move on.
			step.Power = power
			trace = append(trace, step)
			continue
		}
		cPower, cRes, err := opts.scoreCandidate(n, candidate)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		step.Power = cPower
		if cPower < power {
			step.Committed = true
			if cRes == nil {
				// Scored path: synthesize only now that we commit (the
				// re-rank below needs the block's cones).
				if cRes, err = Apply(n, candidate); err != nil {
					return nil, nil, 0, nil, err
				}
			}
			current, res, power = candidate, cRes, cPower
			// The circuit changed: probabilities, cones and overlaps are
			// stale. Re-rank the surviving pairs.
			rank()
		}
		trace = append(trace, step)
	}
	return current, res, power, trace, nil
}

// livePair is one untried output pair (i < j) ranked by its cheapest
// combination under the current synthesis.
type livePair struct {
	i, j  int
	combo Combo
	k     float64
}

// pairHeap is a min-heap of live pairs under the ranking's total order
// (K, i, j, combo). Each pair holds only its cheapest combination, ties
// to the lower Combo: the first of a pair's four candidates to surface
// retires the pair, and under that order it is always the cheapest, so
// the other three could never be tried.
type pairHeap []livePair

func (h pairHeap) Len() int { return len(h) }

func (h pairHeap) Less(a, b int) bool {
	x, y := h[a], h[b]
	if x.k != y.k {
		return x.k < y.k
	}
	if x.i != y.i {
		return x.i < y.i
	}
	// (i, j) is unique per entry, so combo never decides.
	return x.j < y.j
}

func (h pairHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *pairHeap) Push(x any) { *h = append(*h, x.(livePair)) }

func (h *pairHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// coneStats caches per-output cone metrics of one synthesized block and
// evaluates the paper's cost function
//
//	K(i±, j±) = |Di|·Ai± + |Dj|·Aj± + 0.5·O(i,j)·(Ai± + Aj±)
//
// where A+ = A (retain) and A− = 1−A (invert, by Property 4.1).
type coneStats struct {
	size  []int      // |Di| per output
	avg   []float64  // Ai per output
	cones [][]uint64 // Di per output, as a logic.OutputCones bitset
}

// blockConeStats prices the cones of one synthesized block under
// prob.Approximate's node probabilities.
func blockConeStats(res *Result, inputProbs []float64) *coneStats {
	block := res.Block
	probs := prob.Approximate(block, res.BlockInputProbs(inputProbs))
	nOut := block.NumOutputs()
	st := &coneStats{
		size:  make([]int, nOut),
		avg:   make([]float64, nOut),
		cones: block.OutputCones(),
	}
	for i, cone := range st.cones {
		// Sum Ai in ascending block-id order (set bits lowest first):
		// float addition is not associative, and this is the order of
		// the membership-scan reference, so every K keeps its bits.
		sum, cnt := 0.0, 0
		for w, word := range cone {
			for ; word != 0; word &= word - 1 {
				sum += probs[w*64+bits.TrailingZeros64(word)]
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

// k is the cost of one combination given the pair's overlap o.
func (st *coneStats) k(i, j int, combo Combo, o float64) float64 {
	ai, aj := st.avg[i], st.avg[j]
	if combo == InvertRetain || combo == InvertInvert {
		ai = 1 - ai
	}
	if combo == RetainInvert || combo == InvertInvert {
		aj = 1 - aj
	}
	return float64(st.size[i])*ai + float64(st.size[j])*aj + 0.5*o*(ai+aj)
}

// best returns the pair's cheapest combination and its K from one
// overlap, ties to the lower Combo.
func (st *coneStats) best(i, j int) (Combo, float64) {
	o := logic.ConeOverlap(st.cones[i], st.cones[j])
	combo, best := RetainRetain, st.k(i, j, RetainRetain, o)
	for c := RetainInvert; c <= InvertInvert; c++ {
		if kc := st.k(i, j, c, o); kc < best {
			combo, best = c, kc
		}
	}
	return combo, best
}

// topOverlapPairs returns up to max output pairs with the largest cone
// overlap in the given block, ties to the lower (i, j).
func topOverlapPairs(block *logic.Network, max int) pairHeap {
	cones := block.OutputCones()
	type scored struct {
		p livePair
		o float64
	}
	var all []scored
	for i := 0; i < len(cones); i++ {
		for j := i + 1; j < len(cones); j++ {
			all = append(all, scored{livePair{i: i, j: j}, logic.ConeOverlap(cones[i], cones[j])})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].o != all[b].o {
			return all[a].o > all[b].o
		}
		if all[a].p.i != all[b].p.i {
			return all[a].p.i < all[b].p.i
		}
		return all[a].p.j < all[b].p.j
	})
	if len(all) > max {
		all = all[:max]
	}
	out := make(pairHeap, len(all))
	for i, s := range all {
		out[i] = s.p
	}
	return out
}
