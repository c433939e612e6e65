package bdd

import (
	"fmt"

	"repro/internal/logic"
)

// NetworkBDDs holds the result of building BDDs for a combinational
// network: one root per network node, over variables indexed by primary
// input position.
type NetworkBDDs struct {
	Manager *Manager
	// NodeRefs[i] is the BDD of network node i in terms of the primary
	// inputs.
	NodeRefs []Ref
	// InputVar maps a primary-input NodeID to its BDD variable index
	// (position in Network.Inputs()).
	InputVar map[logic.NodeID]int
}

// InputLit maps one network input onto a literal of a shared variable
// space: variable Var, complemented when Neg. It lets callers express
// that two inputs of a block are the true and complemented rails of the
// same physical signal, which matters for exact probabilities.
type InputLit struct {
	Var int
	Neg bool
}

// BuildNetwork constructs BDDs for every node of the network. order gives
// the variable order as a permutation of input positions (level l decides
// input order[l]); pass nil for natural input order. The network must not
// contain cycles (guaranteed by logic.Network construction).
func BuildNetwork(n *logic.Network, order []int) (*NetworkBDDs, error) {
	return BuildNetworkLits(n, n.NumInputs(), nil, order)
}

// BuildNetworkLits constructs BDDs for every node of the network over an
// external variable space of numVars variables; input position p of the
// network is the literal lits[p]. A nil lits means the identity mapping
// (input position p is the positive literal of variable p, requiring
// numVars == NumInputs). order is a permutation of the numVars variables
// (nil for natural).
func BuildNetworkLits(n *logic.Network, numVars int, lits []InputLit, order []int) (*NetworkBDDs, error) {
	return BuildNetworkLitsIn(nil, n, numVars, lits, order)
}

// BuildNetworkLitsIn is BuildNetworkLits building into an existing
// manager: m is Reset (with the requested order installed) and reused,
// so a caller constructing BDDs for many networks over the same variable
// space — per-cone probability passes, the per-mask exact estimator —
// recycles one manager's storage instead of allocating a forest per
// build. m must have exactly numVars variables; a nil m allocates a
// fresh manager, making this a drop-in superset of BuildNetworkLits.
//
// BuildNetworkLitsIn is the build boundary: a malformed order (wrong
// length, not a permutation) and a budget/cancellation interrupt from
// the manager's token both come back as errors here, never as panics.
func BuildNetworkLitsIn(m *Manager, n *logic.Network, numVars int, lits []InputLit, order []int) (nb *NetworkBDDs, err error) {
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
	if lits == nil && numVars != n.NumInputs() {
		return nil, fmt.Errorf("bdd: identity literals need %d vars, got %d", n.NumInputs(), numVars)
	}
	if order == nil {
		order = make([]int, numVars)
		for i := range order {
			order[i] = i
		}
	}
	if m == nil {
		m = NewWithOrder(numVars, order)
	} else {
		if m.NumVars() != numVars {
			return nil, fmt.Errorf("bdd: manager has %d vars, build needs %d", m.NumVars(), numVars)
		}
		m.ResetWithOrder(order)
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
	// table is sifted. ResetWithOrder above cleared prior registrations.
	m.Protect(refs)
	inputVar := make(map[logic.NodeID]int, n.NumInputs())
	var inputNeg []bool
	for pos, id := range n.Inputs() {
		if lits == nil {
			inputVar[id] = pos
			continue
		}
		inputVar[id] = lits[pos].Var
		if lits[pos].Neg {
			if inputNeg == nil {
				inputNeg = make([]bool, n.NumNodes())
			}
			inputNeg[id] = true
		}
	}
	for i := 0; i < n.NumNodes(); i++ {
		// Safe point for automatic reordering: no apply/ITE recursion is
		// live, every ref built so far is protected. The trigger is a
		// pure function of table state, so builds stay deterministic.
		m.maybeReorder()
		id := logic.NodeID(i)
		nd := n.Node(id)
		switch nd.Kind {
		case logic.KindInput:
			if inputNeg != nil && inputNeg[id] {
				refs[i] = m.NVar(inputVar[id])
			} else {
				refs[i] = m.Var(inputVar[id])
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
	return &NetworkBDDs{Manager: m, NodeRefs: refs, InputVar: inputVar}, nil
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

// Transfer rebuilds the function rooted at f in a destination manager with
// a possibly different variable order. varMap maps source variable index
// to destination variable index (nil for identity).
func Transfer(src *Manager, f Ref, dst *Manager, varMap []int) Ref {
	if varMap == nil {
		varMap = make([]int, src.NumVars())
		for i := range varMap {
			varMap[i] = i
		}
	}
	memo := make([]Ref, len(src.nodes))
	seen := make([]bool, len(src.nodes))
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		if r == False {
			return False
		}
		if r == True {
			return True
		}
		if seen[r] {
			return memo[r]
		}
		n := &src.nodes[r]
		v := varMap[src.varAtLevel[n.level]]
		lo := rec(n.lo)
		hi := rec(n.hi)
		res := dst.ITE(dst.Var(v), hi, lo)
		memo[r] = res
		seen[r] = true
		return res
	}
	return rec(f)
}
