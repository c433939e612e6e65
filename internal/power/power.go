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
	"repro/internal/logic"
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

// DefaultDepth is LimitedDepth's truncation depth when Options.Depth
// is not positive.
const DefaultDepth = 4

// Options configures estimation.
type Options struct {
	Method Method
	// Order overrides the BDD variable order for Exact: a permutation of
	// the *original* primary-input variables (nil = the paper's
	// reverse-topological heuristic mapped onto them).
	Order []int
	// Depth and MaxFrontier parameterize LimitedDepth (defaults
	// DefaultDepth and prob.DefaultMaxFrontier).
	Depth       int
	MaxFrontier int
	// MCVectors and MCSeed parameterize MonteCarlo (default
	// prob.DefaultMCVectors vectors, seed 0). Both are semantic: they
	// change the estimated probabilities deterministically.
	MCVectors int
	MCSeed    int64
	// Budget is the cancellation/resource token every engine runs
	// under: exact and limited-depth builds honor its BDD node cap and
	// cancellation, MonteCarlo polls cancellation per window. Excluded
	// from JSON so it never fragments content-addressed cache keys.
	Budget *budget.T `json:"-"`
	// Reorder enables in-place dynamic variable reordering (sifting) in
	// the exact engine's BDD manager: builds reorder themselves when
	// live nodes double or cross half the node budget, and under a
	// budget B a reorder re-arms at least B/4 above the live count it
	// leaves (see bdd.Manager.SetAutoReorder). Reordering is
	// deterministic but semantic — probability summation order changes
	// with the DAG shape — so the flow derives it from Config.BDDReorder
	// (which *is* part of the content-addressed key) and overrides
	// whatever is set here; like Budget it is excluded from JSON.
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

// NodeProbs returns an evaluator of the configured probability engine
// over a plain network: eval(inputProbs) gives every node's probability
// when input i has probability inputProbs[i], under the options' budget
// token. The exact engine builds the network's BDDs on the first call
// and re-evaluates them on later ones — their variable order, and with
// it every reorder decision and node-cap trip, depends on the network
// alone — so the sequential steady state's fixed-point iteration builds
// its block once. The other engines recompute on every call.
func NodeProbs(net *logic.Network, opts Options) func(inputProbs []float64) ([]float64, error) {
	lits := make([]bdd.InputLit, net.NumInputs())
	for i := range lits {
		lits[i] = bdd.InputLit{Var: i}
	}
	var built *bdd.NetworkBDDs
	return func(inputProbs []float64) ([]float64, error) {
		if len(inputProbs) != net.NumInputs() {
			return nil, fmt.Errorf("power: %d input probs for %d inputs", len(inputProbs), net.NumInputs())
		}
		if built == nil && exactEngine(opts.Method, len(inputProbs)) {
			var err error
			if built, err = exactBuild(net, lits, len(inputProbs), opts); err != nil {
				return nil, err
			}
		}
		if built != nil {
			return built.Manager.ProbabilityMany(built.NodeRefs, inputProbs), nil
		}
		nodeProbs, _, err := netNodeProbs(net, lits, inputProbs, opts)
		return nodeProbs, err
	}
}

// blockNodeProbs is the engine dispatch on a mapped block, whose input
// rails are literals of the *original* primary inputs (a complemented
// rail is the complemented literal), so a signal and its inverted rail
// stay exactly correlated. It reports whether the exact engine ran.
// Every value is a pure function of a node's fanin cone (BDDs are
// canonical per function, Approximate and LimitedDepth propagate
// fanin-local state), so a node shared by several output cones carries
// the same probability in every block that contains it — the invariant
// the cone table's precompute-once/score-many decomposition rests on.
func blockNodeProbs(b *domino.Block, inputProbs []float64, opts Options) ([]float64, bool, error) {
	lits := make([]bdd.InputLit, len(b.Phase.Inputs))
	for pos, bi := range b.Phase.Inputs {
		lits[pos] = bdd.InputLit{Var: bi.InputPos, Neg: bi.Inverted}
	}
	return netNodeProbs(b.Net, lits, inputProbs, opts)
}

// netNodeProbs is the one probability-engine dispatch: input p of net is
// the literal lits[p] over variables of probabilities varProbs. The
// exact engine builds into a manager of its own, dropped on return.
func netNodeProbs(net *logic.Network, lits []bdd.InputLit, varProbs []float64, opts Options) ([]float64, bool, error) {
	if len(lits) != net.NumInputs() {
		return nil, false, fmt.Errorf("power: block input mismatch: %d probs, %d inputs", len(lits), net.NumInputs())
	}
	numVars := len(varProbs)
	if opts.Method == MonteCarlo {
		nodeProbs, err := prob.MonteCarloLits(net, numVars, lits, varProbs, opts.MCVectors, opts.MCSeed, opts.Budget)
		return nodeProbs, false, err
	}
	if exactEngine(opts.Method, numVars) {
		nb, err := exactBuild(net, lits, numVars, opts)
		if err != nil {
			return nil, false, err
		}
		return nb.Manager.ProbabilityMany(nb.NodeRefs, varProbs), true, nil
	}
	litProbs := make([]float64, len(lits))
	for pos, l := range lits {
		litProbs[pos] = varProbs[l.Var]
		if l.Neg {
			litProbs[pos] = 1 - litProbs[pos]
		}
	}
	if opts.Method == LimitedDepth {
		depth := opts.Depth
		if depth <= 0 {
			depth = DefaultDepth
		}
		nodeProbs, err := prob.LimitedDepthBudget(net, litProbs, depth, opts.MaxFrontier, opts.Budget)
		return nodeProbs, false, err
	}
	return prob.Approximate(net, litProbs), false, nil
}

// exactEngine reports whether method computes exact probabilities over
// numVars variables.
func exactEngine(method Method, numVars int) bool {
	return method == Exact || (method == Auto && numVars <= AutoExactInputLimit)
}

// exactBuild builds net's BDDs for the exact engine into a manager of
// its own, input p of net the literal lits[p] over numVars variables:
// under Options.Order, or the paper's reverse-topological order mapped
// onto the variables, with the options' budget and reorder setting.
func exactBuild(net *logic.Network, lits []bdd.InputLit, numVars int, opts Options) (*bdd.NetworkBDDs, error) {
	ord := opts.Order
	if ord == nil {
		ord = mapOrderToVars(order.ReverseTopological(net), lits, numVars)
	}
	// Options.Order arrives unchecked from config JSON: a malformed
	// order becomes the returned error, never a panic.
	var m *bdd.Manager
	if err := bdd.CatchInterrupt(func() { m = bdd.NewWithOrder(numVars, ord) }); err != nil {
		return nil, err
	}
	m.SetBudget(opts.Budget)
	m.SetAutoReorder(opts.Reorder)
	return bdd.BuildNetwork(m, net, lits)
}

// Estimate computes the power report of a mapped block given the original
// primary-input probabilities (indexed by original input position).
func Estimate(b *domino.Block, inputProbs []float64, opts Options) (*Report, error) {
	net := b.Net
	nodeProbs, exact, err := blockNodeProbs(b, inputProbs, opts)
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

// Estimator adapts Estimate into a phase.Evaluator over a fixed library,
// input probability vector and engine options: Evaluate maps each
// candidate synthesis and scores it by estimated total power, the
// objective the MinPower loop minimizes. An Estimator holds no state
// between calls — each call maps its own block and builds its own
// probability state — so Evaluate may serve a phase search running with
// Workers > 1.
type Estimator struct {
	lib        domino.Library
	inputProbs []float64
	opts       Options
}

// NewEstimator returns an estimator over a fixed library, input
// probability vector, and engine options.
func NewEstimator(lib domino.Library, inputProbs []float64, opts Options) *Estimator {
	return &Estimator{lib: lib, inputProbs: inputProbs, opts: opts}
}

// Evaluate maps and scores one phase candidate; it is a phase.Evaluator
// method value.
func (e *Estimator) Evaluate(r *phase.Result) (float64, error) {
	b, err := domino.Map(r, e.lib)
	if err != nil {
		return 0, err
	}
	rep, err := Estimate(b, e.inputProbs, e.opts)
	if err != nil {
		return 0, err
	}
	return rep.Total, nil
}
