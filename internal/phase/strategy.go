// Pluggable search strategies.
//
// PR 3 reduced the cost of *scoring* one phase assignment (the cone
// table); this layer reduces the cost of *exploring* the assignment
// space. Every strategy is driven through one pair of abstractions:
//
//   - ScoreState: a mutable scoring position where Flip(bit) reprices
//     only what the flipped phase bit touches (O(Δ) on the cone table's
//     state) and always returns a score bit-identical to the owning
//     scorer's ScoreAssignment — the incremental contract that makes a
//     strategy's outcome a pure function of the visited assignments,
//     independent of flip path, shard geometry, or worker count.
//   - PrefixBound: an admissible lower bound over all completions of a
//     partially decided assignment, used by the exact branch-and-bound.
//
// Scorers advertise support via StateScorer / BoundScorer (power's
// ConeTable implements both); plain AssignmentScorers and raw
// Evaluators are adapted via full-rescore shims so every strategy works
// with every objective, merely without the O(Δ) fast path.
package phase

import (
	"fmt"
	"strings"

	"repro/internal/logic"
)

// SearchStrategy selects how a phase search explores the assignment
// space. The zero value keeps each entry point's historical behavior.
type SearchStrategy int

// Strategies.
const (
	// StrategyAuto is the historical dispatch: exhaustive search up to
	// SearchOptions.ExhaustiveLimit outputs, multi-restart greedy descent
	// beyond (and, in PowerOptions, the paper's pairwise heuristic).
	StrategyAuto SearchStrategy = iota
	// StrategyExhaustive enumerates all 2^k assignments in gray-code
	// order so each candidate costs one Flip instead of a full rescore.
	// Exact, in 2^k time: it refuses interfaces over 20 outputs, whatever
	// the objective (see checkWalk).
	StrategyExhaustive
	// StrategyBranchBound is an exact best-assignment search pruning with
	// the scorer's admissible prefix bound. It returns the bit-identical
	// (assignment, score) of StrategyExhaustive at any worker count and
	// has no 2^k mask-arithmetic ceiling, so it reaches well past k = 20
	// whenever the bound bites. Requires a BoundScorer.
	StrategyBranchBound
	// StrategyAnneal is seeded simulated annealing over single-bit flips
	// (multi-chain, greedy-polished). Deterministic for a fixed
	// (Seed, Restarts, AnnealSteps); works at any k.
	StrategyAnneal
	// StrategyGreedy is multi-restart first-improvement descent over
	// single-bit flips — the historical fallback, now O(Δ) per trial
	// flip on an incremental scorer.
	StrategyGreedy
)

// String names the strategy as the CLI flags spell it.
func (s SearchStrategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyExhaustive:
		return "exhaustive"
	case StrategyBranchBound:
		return "bb"
	case StrategyAnneal:
		return "anneal"
	case StrategyGreedy:
		return "greedy"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy resolves a CLI spelling to a strategy.
func ParseStrategy(name string) (SearchStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return StrategyAuto, nil
	case "exhaustive", "gray", "ex":
		return StrategyExhaustive, nil
	case "bb", "branchbound", "branch-and-bound", "bnb":
		return StrategyBranchBound, nil
	case "anneal", "sa", "annealing":
		return StrategyAnneal, nil
	case "greedy", "descent":
		return StrategyGreedy, nil
	}
	return 0, fmt.Errorf("phase: unknown search strategy %q (want auto, exhaustive, bb, anneal, or greedy)", name)
}

// ScoreState is a mutable scoring position over one scorer's precomputed
// state. Strategies own at most one state per goroutine; states are not
// safe for concurrent use.
//
// Contract: after any Set/Flip sequence, Score() (and each Flip return)
// is bit-identical to ScoreAssignment of the current assignment — the
// incremental-score determinism contract property-tested in
// internal/power. The cone-table state meets it by keeping the total in
// an exact accumulator, so the rounded score is independent of the path
// that reached the assignment.
type ScoreState interface {
	// Set loads a full assignment and returns its score.
	Set(asg Assignment) (float64, error)
	// Flip toggles output bit's phase and returns the updated score. On
	// the cone-table state this reprices only the signature groups whose
	// demand mentions bit — O(groups touching bit) — and cannot fail;
	// rescoring adapters record failures in Err.
	Flip(bit int) float64
	// Score returns the current total.
	Score() float64
	// Err returns the first error any Flip encountered (always nil for
	// the cone-table state). Strategies check it at descent boundaries.
	Err() error
}

// StateScorer is an AssignmentScorer that can mint incremental
// ScoreStates. NewState must be safe to call concurrently; the states
// it returns are independent.
type StateScorer interface {
	AssignmentScorer
	NewState() ScoreState
}

// PrefixBound tracks an admissible lower bound while phase bits are
// fixed one at a time in descending bit order (bit k−1 first — the
// order that makes depth-first leaves appear in ascending mask order).
// Decide fixes the next undecided bit; at full depth the bound IS the
// exact score of the completed assignment, bit-identical to
// ScoreAssignment. A PrefixBound is single-goroutine state.
type PrefixBound interface {
	// Decide fixes the next bit (false = positive phase, true =
	// negative) and returns a lower bound on the score of every
	// completion of the decided prefix.
	Decide(neg bool) float64
	// Undo reverts the most recent Decide.
	Undo()
}

// BoundScorer is an AssignmentScorer whose precomputed state supports
// admissible prefix bounds — what StrategyBranchBound requires.
// NewBound must be safe to call concurrently.
type BoundScorer interface {
	AssignmentScorer
	NewBound() PrefixBound
}

// evalScorer adapts a synthesize-and-evaluate objective into an
// AssignmentScorer so every strategy can run without a precomputed
// scorer (each ScoreAssignment pays a full Apply + eval). It holds no
// state of its own: the stock evaluators are safe for concurrent use on
// distinct Results (see package docs), so concurrent calls are too.
type evalScorer struct {
	n    *logic.Network
	eval Evaluator
}

func (e *evalScorer) ScoreAssignment(asg Assignment) (float64, error) {
	res, err := Apply(e.n, asg)
	if err != nil {
		return 0, err
	}
	return e.eval(res)
}

// rescoreState adapts any AssignmentScorer to the ScoreState interface
// by fully rescoring after every flip — correct for every scorer,
// without the O(Δ) fast path. One remembered score makes the
// flip-then-revert idiom every strategy uses cost a single evaluation,
// matching the historical greedy descent's free boolean revert.
type rescoreState struct {
	sc        AssignmentScorer
	asg       Assignment
	score     float64
	prevBit   int // bit of the immediately preceding Flip, -1 = none
	prevScore float64
	err       error
}

func (r *rescoreState) Set(asg Assignment) (float64, error) {
	r.asg = append(r.asg[:0], asg...)
	r.prevBit = -1
	s, err := r.sc.ScoreAssignment(r.asg)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.score = s
	// A Flip failure stays sticky across Set — Err reports the FIRST
	// error so a strategy's end-of-descent check cannot miss a failed
	// evaluation that steered the walk.
	return s, err
}

func (r *rescoreState) Flip(bit int) float64 {
	r.asg[bit] = !r.asg[bit]
	if bit == r.prevBit {
		// Inverse of the immediately preceding flip: the remembered score
		// is exactly what rescoring would return (ScoreAssignment is a
		// pure function), so restore it for free.
		r.score, r.prevBit = r.prevScore, -1
		return r.score
	}
	prev := r.score
	s, err := r.sc.ScoreAssignment(r.asg)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.prevBit, r.prevScore = bit, prev
	r.score = s
	return s
}

func (r *rescoreState) Score() float64 { return r.score }
func (r *rescoreState) Err() error     { return r.err }

// objective resolves a search's objective into an AssignmentScorer: the
// configured scorer, or the synthesize-and-evaluate adapter over eval.
func objective(n *logic.Network, sc AssignmentScorer, eval Evaluator) AssignmentScorer {
	if sc != nil {
		return sc
	}
	return &evalScorer{n: n, eval: eval}
}

// newState mints an incremental state: the scorer's native state when
// it has one (NewState is itself the concurrency-safe mint), a
// rescoring adapter over the shared scorer otherwise. Call once per
// goroutine.
func newState(sc AssignmentScorer) ScoreState {
	if ss, ok := sc.(StateScorer); ok {
		return ss.NewState()
	}
	return &rescoreState{sc: sc, prevBit: -1}
}

// Search runs the configured strategy and returns the chosen assignment
// with its synthesized Result and score. It is the one frame of every
// strategy: it applies the defaults, checks Initial, resolves the
// objective (Scorer, else Eval through the rescoring adapter) and
// synthesizes only the winner; a strategy only walks the k outputs'
// assignments and returns the one it keeps with its score. Eval-only
// objectives pay a full Apply + eval per candidate (fine for exhaustive
// walks of small interfaces and greedy, expensive for annealing's
// proposal counts). StrategyAuto reproduces MinArea's historical
// dispatch; the other strategies run unconditionally.
//
// Determinism: every strategy's (assignment, score) is bit-identical
// for any Workers value. Exhaustive and branch-and-bound additionally
// return the bit-identical winner of an ascending-mask scan under the
// shared "lowest score, then lowest mask" total order.
func Search(n *logic.Network, opts SearchOptions) (Assignment, *Result, float64, error) {
	opts.defaults()
	k := n.NumOutputs()
	if opts.Initial != nil && len(opts.Initial) != k {
		return nil, nil, 0, fmt.Errorf("phase: initial assignment length %d, want %d", len(opts.Initial), k)
	}
	var search func(k int, sc AssignmentScorer, opts SearchOptions) (Assignment, float64, error)
	switch opts.Strategy {
	case StrategyAuto:
		search = grayExhaustive
		if k > opts.ExhaustiveLimit {
			search = greedySearch
		}
	case StrategyExhaustive:
		search = grayExhaustive
	case StrategyBranchBound:
		search = branchBoundSearch
	case StrategyAnneal:
		search = annealSearch
	case StrategyGreedy:
		search = greedySearch
	default:
		return nil, nil, 0, fmt.Errorf("phase: unknown search strategy %d", int(opts.Strategy))
	}
	asg, score, err := search(k, objective(n, opts.Scorer, opts.Eval), opts)
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := Apply(n, asg)
	if err != nil {
		return nil, nil, 0, err
	}
	return asg, res, score, nil
}
