package phase

import (
	"container/heap"
	"fmt"
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
	// the final assignment. Scorer takes precedence over Evaluate for
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

// MinPower runs the paper's power-driven phase assignment heuristic:
//
//  1. start from an arbitrary assignment;
//  2. for every candidate output pair compute the cost K of the four
//     phase combinations from cone sizes |D|, average cone probabilities
//     A (flipped per Property 4.1 for the inverted options) and the
//     overlap penalty O(i,j), all read for both phases of every output
//     from one union block (ApplyUnion);
//  3. score the minimum-cost combination (ties to the lower pair (i, j),
//     then the lower Combo);
//  4. commit if power decreased, re-pricing only the pairs that touch a
//     flipped output, and in either case retire the pair;
//  5. repeat until no candidate pairs remain, then synthesize the final
//     assignment.
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

	// A trial toggles bits of current in place. The objective resolves
	// as Search's does: a StateScorer scores a trial by flipping its one
	// state, any other objective rescores the trial assignment once.
	sc := objective(n, opts.Scorer, opts.Evaluate)
	var state ScoreState
	if ss, ok := sc.(StateScorer); ok {
		state = ss.NewState()
		if _, err := state.Set(current); err != nil {
			return nil, nil, 0, nil, err
		}
	}
	flip := func(flips []int) {
		for _, f := range flips {
			current[f] = !current[f]
			if state != nil {
				state.Flip(f)
			}
		}
	}
	trial := func(flips []int) (float64, error) {
		flip(flips)
		if state != nil {
			return state.Score(), state.Err()
		}
		return sc.ScoreAssignment(current)
	}

	power, err := trial(nil)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	st, err := newUnionStats(n, opts.InputProbs)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	live := st.livePairs(current, opts.MaxPairs)
	trace := make([]Step, 0, live.Len()) // one step per pair
	var buf [2]int
	for live.Len() > 0 {
		if err := opts.Budget.Err(); err != nil {
			return nil, nil, 0, nil, err
		}
		c := heap.Pop(live).(livePair)
		step := Step{I: c.i, J: c.j, Combo: c.combo, K: c.k, Power: power}
		flips := buf[:0]
		if c.combo == InvertRetain || c.combo == InvertInvert {
			flips = append(flips, c.i)
		}
		if c.combo == RetainInvert || c.combo == InvertInvert {
			flips = append(flips, c.j)
		}
		if len(flips) == 0 {
			// Retaining both phases is a no-op synthesis; it can never
			// strictly decrease power, so record and move on.
			trace = append(trace, step)
			continue
		}
		cPower, err := trial(flips)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		step.Power = cPower
		if cPower >= power {
			flip(flips)
			trace = append(trace, step)
			continue
		}
		step.Committed = true
		power = cPower
		// Only the flipped outputs' cone statistics changed: re-price
		// the live pairs that touch one.
		for _, f := range flips {
			for x := 0; x < k; x++ {
				i, j := min(f, x), max(f, x)
				if at := live.at[i*k+j]; at >= 0 {
					p := &live.pairs[at]
					p.combo, p.k = st.best(current, i, j)
					heap.Fix(live, int(at))
				}
			}
		}
		trace = append(trace, step)
	}
	if state != nil && state.Err() != nil { // a failed revert after the last trial
		return nil, nil, 0, nil, state.Err()
	}
	res, err := Apply(n, current)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	return current, res, power, trace, nil
}

// livePair is one untried output pair (i < j) ranked by its cheapest
// combination under the current assignment.
type livePair struct {
	i, j  int
	combo Combo
	k     float64
}

// pairHeap is a min-heap of live pairs under the ranking's total order
// (K, i, j, combo). Each pair holds only its cheapest combination, ties
// to the lower Combo: the first of a pair's four candidates to surface
// retires the pair, and under that order it is always the cheapest, so
// the other three could never be tried. at[i·k+j] is live pair (i, j)'s
// heap position, or -1, so re-pricing a pair costs one heap.Fix.
type pairHeap struct {
	pairs []livePair
	at    []int32
	k     int
}

func (h *pairHeap) Len() int { return len(h.pairs) }

func (h *pairHeap) Less(a, b int) bool {
	x, y := h.pairs[a], h.pairs[b]
	if x.k != y.k {
		return x.k < y.k
	}
	if x.i != y.i {
		return x.i < y.i
	}
	// (i, j) is unique per entry, so combo never decides.
	return x.j < y.j
}

func (h *pairHeap) Swap(a, b int) {
	p := h.pairs
	p[a], p[b] = p[b], p[a]
	h.at[p[a].i*h.k+p[a].j] = int32(a)
	h.at[p[b].i*h.k+p[b].j] = int32(b)
}

func (h *pairHeap) Push(x any) {
	p := x.(livePair)
	h.at[p.i*h.k+p.j] = int32(len(h.pairs))
	h.pairs = append(h.pairs, p)
}

func (h *pairHeap) Pop() any {
	p := h.pairs[len(h.pairs)-1]
	h.pairs = h.pairs[:len(h.pairs)-1]
	h.at[p.i*h.k+p.j] = -1
	return p
}

// unionStats holds |D|, A and the cone of every output in both phases,
// read once from the unmapped union block (ApplyUnion), whose induced
// subgraphs are every assignment's block: union output u is output
// u mod k, negated when u ≥ k. K(i±, j±) is
//
//	|Di|·Ai± + |Dj|·Aj± + 0.5·O(i,j)·(Ai± + Aj±)
//
// where A+ = A (retain) and A− = 1−A (invert, by Property 4.1).
type unionStats struct {
	k     int
	size  []int      // |D| per union output
	avg   []float64  // A per union output
	cones [][]uint64 // D per union output, as a logic.OutputCones bitset
}

// newUnionStats prices the union block's cones under prob.Approximate.
// Each A is summed in its cone's driver-rooted DFS post-order (fanins in
// order, each node once): float addition is not associative, and this
// order depends on the cone alone, so the union block and every
// assignment's own block sum each A bit for bit alike.
func newUnionStats(n *logic.Network, inputProbs []float64) (*unionStats, error) {
	res, err := ApplyUnion(n)
	if err != nil {
		return nil, err
	}
	block := res.Block
	probs := prob.Approximate(block, res.BlockInputProbs(inputProbs))
	st := &unionStats{k: n.NumOutputs(), size: make([]int, block.NumOutputs()),
		avg: make([]float64, block.NumOutputs()), cones: block.OutputCones()}
	seen := make([]int32, block.NumNodes()) // 1 + the last output whose walk reached the node
	var u int
	var sum float64
	var walk func(id logic.NodeID)
	walk = func(id logic.NodeID) {
		seen[id] = int32(u + 1)
		for _, f := range block.Fanins(id) {
			if seen[f] != int32(u+1) {
				walk(f)
			}
		}
		sum += probs[id]
		st.size[u]++
	}
	for u = range st.avg {
		sum = 0
		walk(block.Outputs()[u].Driver)
		st.avg[u] = sum / float64(st.size[u])
	}
	return st, nil
}

// at returns output i's union output at its phase in asg.
func (st *unionStats) at(asg Assignment, i int) int {
	if asg[i] {
		return i + st.k
	}
	return i
}

// kCost is the cost of one combination of union outputs ui and uj given
// their overlap o.
func (st *unionStats) kCost(ui, uj int, combo Combo, o float64) float64 {
	ai, aj := st.avg[ui], st.avg[uj]
	if combo == InvertRetain || combo == InvertInvert {
		ai = 1 - ai
	}
	if combo == RetainInvert || combo == InvertInvert {
		aj = 1 - aj
	}
	return float64(st.size[ui])*ai + float64(st.size[uj])*aj + 0.5*o*(ai+aj)
}

// best returns pair (i, j)'s cheapest combination at asg's phases and
// its K from one overlap, ties to the lower Combo.
func (st *unionStats) best(asg Assignment, i, j int) (Combo, float64) {
	ui, uj := st.at(asg, i), st.at(asg, j)
	o := logic.ConeOverlap(st.cones[ui], st.cones[uj])
	combo, best := RetainRetain, st.kCost(ui, uj, RetainRetain, o)
	for c := RetainInvert; c <= InvertInvert; c++ {
		if kc := st.kCost(ui, uj, c, o); kc < best {
			combo, best = c, kc
		}
	}
	return combo, best
}

// livePairs ranks the candidate pairs at asg's phases into a heap: every
// pair, or, under maxPairs > 0, the maxPairs pairs with the largest cone
// overlap, ties to the lower (i, j).
func (st *unionStats) livePairs(asg Assignment, maxPairs int) *pairHeap {
	k := st.k
	h := &pairHeap{pairs: make([]livePair, 0, k*(k-1)/2), at: make([]int32, k*k), k: k}
	for x := range h.at {
		h.at[x] = -1
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			h.Push(livePair{i: i, j: j})
		}
	}
	if maxPairs > 0 && maxPairs < h.Len() {
		// The heap's own (K, i, j) order at K = −O.
		for x := range h.pairs {
			p := &h.pairs[x]
			p.k = -logic.ConeOverlap(st.cones[st.at(asg, p.i)], st.cones[st.at(asg, p.j)])
		}
		sort.Sort(h)
		for _, p := range h.pairs[maxPairs:] {
			h.at[p.i*k+p.j] = -1
		}
		h.pairs = h.pairs[:maxPairs]
	}
	for x := range h.pairs {
		p := &h.pairs[x]
		p.combo, p.k = st.best(asg, p.i, p.j)
	}
	heap.Init(h)
	return h
}
