// Package prob computes signal and switching probabilities for
// combinational networks, the quantities at the heart of the paper's
// power model (Section 2).
//
// Signal probability p of a node is the probability its logical output is
// 1 under independent Bernoulli primary inputs. For a domino gate the
// switching probability equals the signal probability (Property 2.1): the
// gate discharges in evaluation exactly when its output is 1, and must
// then precharge. For a static CMOS gate under the temporal-independence
// assumption the switching probability is 2p(1−p): a transition happens
// when consecutive cycles disagree. Figure 2 of the paper contrasts the
// two curves; this package exposes both models.
package prob

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/logic"
)

// Uniform returns an input-probability vector assigning p to every
// primary input of n.
func Uniform(n *logic.Network, p float64) []float64 {
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = p
	}
	return probs
}

// Exact computes the exact signal probability of every network node via
// BDDs built in natural input order. inputProbs is indexed by input
// position. The cost is linear in the shared BDD size, which is why the
// paper pairs this computation with the variable-ordering heuristic of
// internal/order (ExactLits takes a manager carrying such an order).
func Exact(n *logic.Network, inputProbs []float64) ([]float64, error) {
	if len(inputProbs) != n.NumInputs() {
		return nil, fmt.Errorf("prob: %d input probs for %d inputs", len(inputProbs), n.NumInputs())
	}
	return ExactLits(bdd.New(n.NumInputs()), n, nil, inputProbs)
}

// ExactLits computes exact node probabilities by building n into m, whose
// variable order, budget and auto-reorder setting the caller has fixed:
// input position p is the literal lits[p] over m's variables (nil = the
// identity mapping), and varProbs holds the variables' probabilities.
// This is how a domino block is analyzed faithfully: its true and
// complemented input rails are correlated literals of the same primary
// input, not independent signals.
func ExactLits(m *bdd.Manager, n *logic.Network, lits []bdd.InputLit, varProbs []float64) ([]float64, error) {
	if len(varProbs) != m.NumVars() {
		return nil, fmt.Errorf("prob: %d var probs for %d vars", len(varProbs), m.NumVars())
	}
	nb, err := bdd.BuildNetwork(m, n, lits)
	if err != nil {
		return nil, err
	}
	return m.ProbabilityMany(nb.NodeRefs, varProbs), nil
}

// Approximate computes signal probabilities with the correlation-free
// (tree) assumption: every gate's fanins are treated as independent. It
// is exact on fanout-free networks and a fast, biased estimate otherwise;
// the flow uses it as a cross-check and as a cheap prefilter.
func Approximate(n *logic.Network, inputProbs []float64) []float64 {
	if len(inputProbs) != n.NumInputs() {
		panic(fmt.Sprintf("prob: %d input probs for %d inputs", len(inputProbs), n.NumInputs()))
	}
	p := make([]float64, n.NumNodes())
	inPos := make(map[logic.NodeID]int, n.NumInputs())
	for pos, id := range n.Inputs() {
		inPos[id] = pos
	}
	for i := 0; i < n.NumNodes(); i++ {
		id := logic.NodeID(i)
		switch n.Kind(id) {
		case logic.KindInput:
			p[i] = inputProbs[inPos[id]]
		case logic.KindConst0:
			p[i] = 0
		case logic.KindConst1:
			p[i] = 1
		default:
			p[i] = localApprox(n, id, p)
		}
	}
	return p
}

// DominoSwitching returns the switching probability of a domino gate with
// signal probability p (Property 2.1: S = p, at both the dynamic node and
// the buffered output).
func DominoSwitching(p float64) float64 { return p }

// StaticSwitching returns the per-cycle switching probability of a static
// CMOS gate with signal probability p under temporal independence:
// S = 2p(1−p).
func StaticSwitching(p float64) float64 { return 2 * p * (1 - p) }

// BoundaryInputInverterSwitching returns the switching probability of a
// static inverter at a domino block *input* boundary. Its input is an
// ordinary (static) primary signal with probability p, so it switches
// like a static gate: 2p(1−p). These are the ".18" inverters of the
// paper's Figure 5 at p = 0.9.
func BoundaryInputInverterSwitching(p float64) float64 { return StaticSwitching(p) }

// BoundaryOutputInverterSwitching returns the switching probability of a
// static inverter at a domino block *output* boundary. Its input is a
// domino output which makes a monotonic transition with probability equal
// to its signal probability p and is precharged back every cycle, so the
// inverter switches with probability p — exactly the driving domino
// gate's switching. These are the ".0019"/".8019" inverters of Figure 5.
func BoundaryOutputInverterSwitching(pDriver float64) float64 { return pDriver }

// CurvePoint is one sample of a switching-vs-signal-probability curve.
type CurvePoint struct {
	P float64 // signal probability
	S float64 // switching probability
}

// Figure2Curves samples the domino and static switching curves the paper
// plots in Figure 2, at steps+1 evenly spaced probabilities in [0,1].
func Figure2Curves(steps int) (domino, static []CurvePoint) {
	if steps < 1 {
		panic("prob: steps must be >= 1")
	}
	for i := 0; i <= steps; i++ {
		p := float64(i) / float64(steps)
		domino = append(domino, CurvePoint{p, DominoSwitching(p)})
		static = append(static, CurvePoint{p, StaticSwitching(p)})
	}
	return domino, static
}
