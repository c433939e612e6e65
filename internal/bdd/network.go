package bdd

import (
	"fmt"

	"repro/internal/logic"
)

// NetworkBDDs holds the result of building BDDs for a combinational
// network: one root per network node, over the manager's variables.
type NetworkBDDs struct {
	Manager *Manager
	// NodeRefs[i] is the BDD of network node i in terms of the primary
	// inputs.
	NodeRefs []Ref
}

// InputLit maps one network input onto a literal of a shared variable
// space: variable Var, complemented when Neg. It lets callers express
// that two inputs of a block are the true and complemented rails of the
// same physical signal, which matters for exact probabilities.
type InputLit struct {
	Var int
	Neg bool
}

// BuildNetwork adds BDDs for every node of the network to m, whose
// variable order, budget and auto-reorder setting the caller has fixed:
// input position p of the network is the literal lits[p] over m's
// variables, and a nil lits is the identity mapping (input position p is
// the positive literal of variable p, requiring m.NumVars() ==
// NumInputs). m is never reset, so networks built into one manager share
// its nodes and equal functions are equal Refs. The network must not
// contain cycles (guaranteed by logic.Network construction).
//
// BuildNetwork is the build boundary: a budget/cancellation interrupt
// from m's token comes back as an error here, never as a panic. A
// tripped build's manager is dropped, not reused.
func BuildNetwork(m *Manager, n *logic.Network, lits []InputLit) (nb *NetworkBDDs, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e := recoveredBuildErr(p); e != nil {
				nb, err = nil, e
				return
			}
			panic(p)
		}
	}()
	if lits != nil && len(lits) != n.NumInputs() {
		return nil, fmt.Errorf("bdd: %d literals for %d inputs", len(lits), n.NumInputs())
	}
	if lits == nil && m.NumVars() != n.NumInputs() {
		return nil, fmt.Errorf("bdd: identity literals need %d vars, got %d", n.NumInputs(), m.NumVars())
	}
	// One cancellation check per build, so builds too small to reach the
	// insert-interval poll still observe a cancelled token promptly.
	if err := m.budget.Err(); err != nil {
		return nil, err
	}
	refs := make([]Ref, n.NumNodes())
	// The result slice is protected for the manager's reorderer: refs
	// filled so far (unfilled entries are the False terminal, a harmless
	// pin) survive any automatic or explicit reorder with their slots
	// intact, so the returned NodeRefs stay valid however often the
	// table is sifted.
	m.Protect(refs)
	lit := make([]InputLit, n.NumNodes())
	for pos, id := range n.Inputs() {
		if lits == nil {
			lit[id] = InputLit{Var: pos}
		} else {
			lit[id] = lits[pos]
		}
	}
	for i := 0; i < n.NumNodes(); i++ {
		// Safe point for automatic reordering: no apply/ITE recursion is
		// live, every ref built so far is protected. The trigger is a
		// pure function of table state, so builds stay deterministic.
		m.maybeReorder()
		nd := n.Node(logic.NodeID(i))
		switch nd.Kind {
		case logic.KindInput:
			if lit[i].Neg {
				refs[i] = m.NVar(lit[i].Var)
			} else {
				refs[i] = m.Var(lit[i].Var)
			}
		case logic.KindConst0:
			refs[i] = False
		case logic.KindConst1:
			refs[i] = True
		case logic.KindBuf:
			refs[i] = refs[nd.Fanins[0]]
		case logic.KindNot:
			refs[i] = m.Not(refs[nd.Fanins[0]])
		case logic.KindAnd:
			acc := True
			for _, f := range nd.Fanins {
				acc = m.And(acc, refs[f])
			}
			refs[i] = acc
		case logic.KindOr:
			acc := False
			for _, f := range nd.Fanins {
				acc = m.Or(acc, refs[f])
			}
			refs[i] = acc
		case logic.KindXor:
			acc := False
			for _, f := range nd.Fanins {
				acc = m.Xor(acc, refs[f])
			}
			refs[i] = acc
		default:
			return nil, fmt.Errorf("bdd: unsupported node kind %s", nd.Kind)
		}
	}
	return &NetworkBDDs{Manager: m, NodeRefs: refs}, nil
}

// OutputRefs returns the BDD roots of the network's primary outputs in
// output order.
func (nb *NetworkBDDs) OutputRefs(n *logic.Network) []Ref {
	outs := make([]Ref, n.NumOutputs())
	for i, o := range n.Outputs() {
		outs[i] = nb.NodeRefs[o.Driver]
	}
	return outs
}
