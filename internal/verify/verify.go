// Package verify implements BDD-based combinational equivalence checking
// (CEC), the repository's one equivalence check. Phase assignment,
// domino mapping, the technology-independent rewrites and the BLIF/PLA
// round trips all claim functional preservation, and their tests prove
// it with Check: canonical BDDs over a shared variable order decide
// equivalence exactly at any width (the twins have up to 235 inputs).
package verify

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/order"
)

// Result of an equivalence check.
type Result struct {
	Equivalent bool
	// FailingOutput names the first mismatching output when not
	// equivalent.
	FailingOutput string
	// Counterexample is an input assignment (by first network's input
	// order) witnessing the mismatch, when not equivalent.
	Counterexample []bool
	// Nodes is the size of the one manager both networks were built
	// into (bdd.Manager.Size), a cost indicator.
	Nodes int
}

// Equivalent checks two combinational networks for functional equality.
// Inputs and outputs are matched by name. The BDD variable order is the
// paper's reverse-topological heuristic computed on the first network
// (a good order for one is typically good for both, since the second is
// a rewrite of the first in every use in this repository).
func Equivalent(a, b *logic.Network) (*Result, error) {
	if a.NumInputs() != b.NumInputs() {
		return nil, fmt.Errorf("verify: input count mismatch: %d vs %d", a.NumInputs(), b.NumInputs())
	}
	if a.NumOutputs() != b.NumOutputs() {
		return nil, fmt.Errorf("verify: output count mismatch: %d vs %d", a.NumOutputs(), b.NumOutputs())
	}
	// Shared variable space: variable index = position in a's inputs.
	varOfName := make(map[string]int, a.NumInputs())
	for pos, id := range a.Inputs() {
		varOfName[a.Node(id).Name] = pos
	}
	bLits := make([]bdd.InputLit, b.NumInputs())
	for pos, id := range b.Inputs() {
		v, ok := varOfName[b.Node(id).Name]
		if !ok {
			return nil, fmt.Errorf("verify: input %q missing in first network", b.Node(id).Name)
		}
		bLits[pos] = bdd.InputLit{Var: v}
	}

	// Both networks go into one manager over a's inputs, in the paper's
	// reverse-topological order: ROBDDs are canonical within a manager,
	// so two outputs compute the same function exactly when their Refs
	// are equal.
	m := bdd.NewWithOrder(a.NumInputs(), order.ReverseTopological(a))
	nbA, err := bdd.BuildNetwork(m, a, nil)
	if err != nil {
		return nil, err
	}
	nbB, err := bdd.BuildNetwork(m, b, bLits)
	if err != nil {
		return nil, err
	}

	res := &Result{Equivalent: true}
	for _, oa := range a.Outputs() {
		oi := b.OutputByName(oa.Name)
		if oi < 0 {
			return nil, fmt.Errorf("verify: output %q missing in second network", oa.Name)
		}
		fa := nbA.NodeRefs[oa.Driver]
		fb := nbB.NodeRefs[b.Outputs()[oi].Driver]
		if fa != fb {
			res.Equivalent = false
			res.FailingOutput = oa.Name
			res.Counterexample = counterexample(m, fa, fb, a.NumInputs())
			break
		}
	}
	res.Nodes = m.Size()
	return res, nil
}

// counterexample finds an assignment where fa != fb by satisfying
// fa XOR fb.
func counterexample(m *bdd.Manager, fa, fb bdd.Ref, numVars int) []bool {
	diff := m.Xor(fa, fb)
	assignment := make([]bool, numVars)
	// Walk to the True terminal preferring the branch that keeps the
	// function satisfiable.
	r := diff
	for r != bdd.True && r != bdd.False {
		// Try hi first.
		sup := m.Support(r)
		if len(sup) == 0 {
			break
		}
		v := sup[0]
		hi := m.Restrict(r, v, true)
		if hi != bdd.False {
			assignment[v] = true
			r = hi
		} else {
			r = m.Restrict(r, v, false)
		}
	}
	return assignment
}

// Check is Equivalent as a plain error on a mismatch or an interface
// problem, the form every function-preservation test uses.
func Check(a, b *logic.Network) error {
	res, err := Equivalent(a, b)
	if err != nil {
		return err
	}
	if !res.Equivalent {
		return fmt.Errorf("verify: networks differ at output %q (counterexample %v)",
			res.FailingOutput, res.Counterexample)
	}
	return nil
}
