// Package power estimates the power of a mapped domino block with the
// paper's model (Section 4.2):
//
//	P = Σ_i S_i · C_i · (1 + P_i)
//
// where S_i is the switching probability of cell i (equal to its signal
// probability for domino gates, Property 2.1), C_i its output load and
// P_i the gate-type penalty (zero in the paper's experiments, so the
// objective degenerates to weighted switching activity). Boundary static
// inverters are accounted with the static models of internal/prob.
package power

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/order"
	"repro/internal/phase"
	"repro/internal/prob"
)

// Method selects the signal-probability engine.
type Method int

// Probability engines.
const (
	// Auto uses Exact up to AutoExactInputLimit block inputs, then
	// Approximate.
	Auto Method = iota
	// Exact computes probabilities on BDDs built with the paper's
	// reverse-topological variable order.
	Exact
	// Approximate uses correlation-free propagation.
	Approximate
	// LimitedDepth uses bounded reconvergence analysis (Costa et al. [6])
	// with Options.Depth and Options.MaxFrontier.
	LimitedDepth
	// MonteCarlo estimates probabilities by bit-parallel random
	// simulation (Options.MCVectors vectors, Options.MCSeed). It builds
	// no BDDs, so it can never trip the BDD node budget — the engine of
	// last resort in the flow's degradation chain. Deterministic given
	// (MCVectors, MCSeed).
	MonteCarlo
)

// AutoExactInputLimit is the input-count threshold above which Auto
// falls back to approximate probabilities.
const AutoExactInputLimit = 24

// Options configures estimation.
type Options struct {
	Method Method
	// Order overrides the BDD variable order for Exact: a permutation of
	// the *original* primary-input variables (nil = the paper's
	// reverse-topological heuristic mapped onto them).
	Order []int
	// Depth and MaxFrontier parameterize LimitedDepth (defaults 4 and
	// 16).
	Depth       int
	MaxFrontier int
	// MCVectors and MCSeed parameterize MonteCarlo (default 2048
	// vectors, seed 0). Both are semantic: they change the estimated
	// probabilities deterministically.
	MCVectors int
	MCSeed    int64
	// Budget is the cancellation/resource token every engine runs
	// under: exact and limited-depth builds honor its BDD node cap and
	// cancellation, MonteCarlo polls cancellation per window. Excluded
	// from JSON so it never fragments content-addressed cache keys.
	Budget *budget.T `json:"-"`
	// Reorder enables in-place dynamic variable reordering (sifting) in
	// the exact engine's BDD manager: builds reorder themselves when
	// live nodes double or cross the budget-fraction point (see
	// bdd.Manager.SetAutoReorder). Reordering is deterministic but
	// semantic — probability summation order changes with the DAG shape
	// — so the flow derives it from Config.BDDReorder (which *is* part
	// of the content-addressed key) and overrides whatever is set here;
	// like Budget it is excluded from JSON.
	Reorder bool `json:"-"`
}

// Report breaks down the estimated power of a block.
type Report struct {
	// Domino is the Σ S·C·(1+P) over domino cells.
	Domino float64
	// InputInverters and OutputInverters cover the boundary static
	// inverters.
	InputInverters  float64
	OutputInverters float64
	// Total is the sum of the three components.
	Total float64
	// PerCell holds each domino cell's contribution, parallel to
	// Block.Cells.
	PerCell []float64
	// NodeProbs holds the signal probability of every Block.Net node.
	NodeProbs []float64
	// ExactProbs reports whether NodeProbs came from the exact engine.
	ExactProbs bool
}

// blockNodeProbs runs the configured probability engine over a mapped
// block's network and reports whether the exact engine was used. It is
// the cone-granular piece of Estimate: every value it returns is a pure
// function of a node's fanin cone (BDDs are canonical per function,
// Approximate and LimitedDepth propagate strictly fanin-local state), so
// a node shared by several output cones carries the same probability in
// any block that contains it — the invariant the cone table's
// precompute-once/score-many decomposition rests on. mgr, when non-nil,
// is reset and reused by the exact engine (see bdd.BuildNetworkLitsIn).
func blockNodeProbs(mgr *bdd.Manager, b *domino.Block, inputProbs []float64, opts Options) ([]float64, bool, error) {
	net := b.Net
	blockProbs := b.Phase.BlockInputProbs(inputProbs)
	if len(blockProbs) != net.NumInputs() {
		return nil, false, fmt.Errorf("power: block input mismatch: %d probs, %d inputs", len(blockProbs), net.NumInputs())
	}
	numVars := len(inputProbs)
	exact := opts.Method == Exact || (opts.Method == Auto && numVars <= AutoExactInputLimit)
	if exact || opts.Method == MonteCarlo {
		// Build over the *original* primary inputs: block input rails
		// carrying a complemented signal become complemented literals of
		// the same variable, so the shared-variable correlation between
		// a signal and its inverted rail is exact (BDDs) or sampled from
		// the same random word (MonteCarlo).
		lits := make([]bdd.InputLit, len(b.Phase.Inputs))
		for pos, bi := range b.Phase.Inputs {
			lits[pos] = bdd.InputLit{Var: bi.InputPos, Neg: bi.Inverted}
		}
		if opts.Method == MonteCarlo {
			nodeProbs, err := prob.MonteCarloLits(net, numVars, lits, inputProbs, opts.MCVectors, opts.MCSeed, opts.Budget)
			if err != nil {
				return nil, false, err
			}
			return nodeProbs, false, nil
		}
		if mgr == nil && (opts.Budget != nil || opts.Reorder) {
			// The exact engine must build under the token (and/or with
			// auto-reorder armed); materialize the manager here so both
			// can be attached.
			mgr = bdd.New(numVars)
		}
		if mgr != nil {
			mgr.SetBudget(opts.Budget)
			mgr.SetAutoReorder(opts.Reorder)
		}
		ord := opts.Order
		if ord == nil {
			ord = mapOrderToVars(order.ReverseTopological(net), lits, numVars)
		}
		nodeProbs, err := prob.ExactLitsIn(mgr, net, numVars, lits, inputProbs, ord)
		if err != nil {
			return nil, false, err
		}
		return nodeProbs, true, nil
	}
	if opts.Method == LimitedDepth {
		depth := opts.Depth
		if depth <= 0 {
			depth = 4
		}
		nodeProbs, err := prob.LimitedDepthBudget(net, blockProbs, depth, opts.MaxFrontier, opts.Budget)
		if err != nil {
			return nil, false, err
		}
		return nodeProbs, false, nil
	}
	return prob.Approximate(net, blockProbs), false, nil
}

// Estimate computes the power report of a mapped block given the original
// primary-input probabilities (indexed by original input position).
func Estimate(b *domino.Block, inputProbs []float64, opts Options) (*Report, error) {
	return estimateIn(nil, b, inputProbs, opts)
}

// estimateIn is Estimate with an optional reusable BDD manager for the
// exact engine.
func estimateIn(mgr *bdd.Manager, b *domino.Block, inputProbs []float64, opts Options) (*Report, error) {
	net := b.Net
	nodeProbs, exact, err := blockNodeProbs(mgr, b, inputProbs, opts)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		PerCell:    make([]float64, len(b.Cells)),
		NodeProbs:  nodeProbs,
		ExactProbs: exact,
	}
	for ci := range b.Cells {
		cell := &b.Cells[ci]
		s := prob.DominoSwitching(nodeProbs[cell.Node])
		p := s * cell.Load * (1 + cell.Penalty)
		rep.PerCell[ci] = p
		rep.Domino += p
	}
	loads := b.NodeLoads()
	for pos, id := range net.Inputs() {
		bi := b.Phase.Inputs[pos]
		if !bi.Inverted {
			continue
		}
		s := prob.BoundaryInputInverterSwitching(inputProbs[bi.InputPos])
		rep.InputInverters += s * loads[id]
	}
	lib := b.Library()
	for i, bo := range b.Phase.Outputs {
		if !bo.Negated {
			continue
		}
		driver := net.Outputs()[i].Driver
		s := prob.BoundaryOutputInverterSwitching(nodeProbs[driver])
		rep.OutputInverters += s * lib.OutputCap
	}
	rep.Total = rep.Domino + rep.InputInverters + rep.OutputInverters
	return rep, nil
}

// mapOrderToVars converts a block-input-position order into an order over
// the shared original-input variables: variables are ranked by the first
// appearance of any of their rails in the input order, and variables with
// no rail in the block are appended.
func mapOrderToVars(inputOrder []int, lits []bdd.InputLit, numVars int) []int {
	seen := make([]bool, numVars)
	out := make([]int, 0, numVars)
	for _, pos := range inputOrder {
		v := lits[pos].Var
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := 0; v < numVars; v++ {
		if !seen[v] {
			out = append(out, v)
		}
	}
	return out
}

// Evaluator adapts Estimate into a phase.Evaluator: it maps each
// candidate synthesis with the given library and scores it by estimated
// total power. This is the objective the MinPower loop minimizes.
//
// The returned closure is safe for concurrent use on distinct Results —
// each call maps its own block and builds its own probability state
// (including any BDD manager), sharing only the immutable lib and
// inputProbs — so it may be passed to any phase search running with
// Workers > 1.
func Evaluator(lib domino.Library, inputProbs []float64, opts Options) phase.Evaluator {
	return func(r *phase.Result) (float64, error) {
		b, err := domino.Map(r, lib)
		if err != nil {
			return 0, err
		}
		rep, err := Estimate(b, inputProbs, opts)
		if err != nil {
			return 0, err
		}
		return rep.Total, nil
	}
}

// Estimator is Estimate with retained state: one BDD manager is created
// lazily and recycled (bdd.Manager.Reset) across calls of the exact
// engine, so sequential estimation loops — the MinPower trial loop, the
// naive exhaustive baseline — stop allocating a fresh forest per
// candidate. Unlike the Evaluator closure, an Estimator is NOT safe for
// concurrent use; keep one per goroutine (they share nothing).
type Estimator struct {
	lib        domino.Library
	inputProbs []float64
	opts       Options
	mgr        *bdd.Manager
}

// NewEstimator returns an estimator over a fixed library, input
// probability vector, and engine options.
func NewEstimator(lib domino.Library, inputProbs []float64, opts Options) *Estimator {
	return &Estimator{lib: lib, inputProbs: inputProbs, opts: opts}
}

// Estimate is power.Estimate reusing the estimator's BDD manager.
func (e *Estimator) Estimate(b *domino.Block) (*Report, error) {
	if e.mgr == nil {
		e.mgr = bdd.New(len(e.inputProbs))
	}
	return estimateIn(e.mgr, b, e.inputProbs, e.opts)
}

// Evaluate maps and scores one phase candidate; it is a phase.Evaluator
// method value for sequential searches (MinPower, MinPowerGroups).
func (e *Estimator) Evaluate(r *phase.Result) (float64, error) {
	b, err := domino.Map(r, e.lib)
	if err != nil {
		return 0, err
	}
	rep, err := e.Estimate(b)
	if err != nil {
		return 0, err
	}
	return rep.Total, nil
}

// SwitchingOnly computes the unweighted total switching of a block (all
// loads and penalties treated as 1) — the Figure 5 metric. It shares the
// probability engine selection with Estimate.
func SwitchingOnly(b *domino.Block, inputProbs []float64, opts Options) (float64, error) {
	rep, err := Estimate(b, inputProbs, opts)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for ci := range b.Cells {
		total += prob.DominoSwitching(rep.NodeProbs[b.Cells[ci].Node])
	}
	for pos := range b.Net.Inputs() {
		bi := b.Phase.Inputs[pos]
		if bi.Inverted {
			total += prob.BoundaryInputInverterSwitching(inputProbs[bi.InputPos])
		}
	}
	for i, bo := range b.Phase.Outputs {
		if bo.Negated {
			total += prob.BoundaryOutputInverterSwitching(rep.NodeProbs[b.Net.Outputs()[i].Driver])
		}
	}
	return total, nil
}

// CellSwitching returns the switching probability of each domino cell,
// parallel to Block.Cells, using the requested engine.
func CellSwitching(b *domino.Block, inputProbs []float64, opts Options) ([]float64, error) {
	rep, err := Estimate(b, inputProbs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(b.Cells))
	for ci := range b.Cells {
		out[ci] = prob.DominoSwitching(rep.NodeProbs[b.Cells[ci].Node])
	}
	return out, nil
}
