package sop

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/logic"
)

// FactorInto builds a multi-level factored realization of the cover into
// an existing network, returning the driving node. It uses recursive
// literal division (the core of Brayton-style quick factoring): the most
// frequent literal L splits the cover as
//
//	cover = L·quotient + remainder
//
// and both parts are factored recursively. The result typically has far
// fewer literals than the flat two-level form, which matters downstream:
// the domino mapper packs the factored AND/OR trees into width-limited
// cells.
//
// inputs maps cover variables to existing network nodes. tok (nil =
// never cancelled) is polled once per recursive call, as FromBDD polls
// it: a wide cover factors for seconds (a 20-input parity output's 2^19
// cubes take ~3 s), so a cancellation comes back as the error.
func FactorInto(c *Cover, n *logic.Network, inputs []logic.NodeID, tok *budget.T) (logic.NodeID, error) {
	if len(inputs) != c.NumVars {
		return logic.InvalidNode, fmt.Errorf("sop: %d input nodes for %d vars", len(inputs), c.NumVars)
	}
	f := &factoring{n: n, inputs: inputs, inverted: make(map[int]logic.NodeID)}
	var rec func(cubes []Cube) logic.NodeID
	rec = func(cubes []Cube) logic.NodeID {
		if err := tok.Err(); err != nil {
			bdd.Interrupt(err)
		}
		switch len(cubes) {
		case 0:
			return n.AddConst(false)
		case 1:
			return f.product(cubes[0])
		}
		v, l, quotient, remainder := divide(cubes, c.NumVars)
		if v < 0 {
			// No shared literal: plain OR of cube ANDs.
			terms := make([]logic.NodeID, len(cubes))
			for i, cube := range cubes { //dominolint:budget-ok one product per cube of this call, which polled
				terms[i] = f.product(cube)
			}
			return n.AddOr(terms...)
		}
		q := rec(quotient)
		term := f.literal(v, l)
		if !isConstTrue(n, q) {
			term = n.AddAnd(term, q)
		}
		if len(remainder) == 0 {
			return term
		}
		return n.AddOr(term, rec(remainder))
	}
	var root logic.NodeID
	if err := bdd.CatchInterrupt(func() { root = rec(c.Cubes) }); err != nil {
		return logic.InvalidNode, err
	}
	return root, nil
}

// factoring is the network a cover is factored into, with its input
// nodes by cover variable and each variable's inverter, added on first
// use.
type factoring struct {
	n        *logic.Network
	inputs   []logic.NodeID
	inverted map[int]logic.NodeID
}

// literal returns the node of variable v in polarity l.
func (f *factoring) literal(v int, l Literal) logic.NodeID {
	if l == Pos {
		return f.inputs[v]
	}
	if id, ok := f.inverted[v]; ok {
		return id
	}
	id := f.n.AddNot(f.inputs[v])
	f.inverted[v] = id
	return id
}

// product returns the AND of a cube's literals.
func (f *factoring) product(cube Cube) logic.NodeID {
	var lits []logic.NodeID
	for v := range f.inputs {
		if l := cube.Literal(v); l != DontCare {
			lits = append(lits, f.literal(v, l))
		}
	}
	switch len(lits) {
	case 0:
		return f.n.AddConst(true)
	case 1:
		return lits[0]
	default:
		return f.n.AddAnd(lits...)
	}
}

// divide splits cubes by their most frequent literal L of variable v
// (the first in variable order on a tie, positive before negative):
// cubes = L·quotient + remainder. v is -1 when no literal appears in two
// cubes.
func divide(cubes []Cube, numVars int) (v int, l Literal, quotient, remainder []Cube) {
	v, l, best := -1, DontCare, 1
	for u := 0; u < numVars; u++ {
		pos, neg := 0, 0
		for _, cube := range cubes {
			switch cube.Literal(u) {
			case Pos:
				pos++
			case Neg:
				neg++
			}
		}
		if pos > best {
			v, l, best = u, Pos, pos
		}
		if neg > best {
			v, l, best = u, Neg, neg
		}
	}
	if v < 0 {
		return v, l, nil, nil
	}
	for _, cube := range cubes {
		if cube.Literal(v) == l {
			quotient = append(quotient, cube.WithLiteral(v, DontCare))
		} else {
			remainder = append(remainder, cube)
		}
	}
	return v, l, quotient, remainder
}

func isConstTrue(n *logic.Network, id logic.NodeID) bool {
	return n.Kind(id) == logic.KindConst1
}

// MaxSupport is the largest maxSupport flow.Config.Validate accepts from
// an untrusted configuration (as MaxCollapseSupport), and the widest the
// repository runs. A parity output's ISOP cover has 2^(support−1) cubes,
// and parity's BDD is too small for a node budget to stop the cover's
// construction: at support 20 one collapse takes ~5 s and ~380 MB on a
// 2-vCPU Xeon (the ISOP ~0.3 s of it, factoring ~3 s and the final
// Optimize ~1.6 s), and every two inputs more quadruple both.
const MaxSupport = 20

// FactorNetwork is the collapse-and-refactor pass of technology-
// independent synthesis: every output whose support is at most
// maxSupport is rebuilt as the factored form of its ISOP cover, and
// wider outputs are copied structurally. It builds the network's BDDs
// once, in natural input order, in a manager that carries tok (nil =
// no budget, never cancelled) and never reorders, so the pass obeys the
// row's cancellation, timeout and BDD node budget like every other
// build; a trip comes back as the error.
func FactorNetwork(n *logic.Network, maxSupport int, tok *budget.T) (*logic.Network, error) {
	m := bdd.New(n.NumInputs())
	m.SetBudget(tok)
	nb, err := bdd.BuildNetwork(m, n, nil)
	if err != nil {
		return nil, err
	}
	out, inIDs, copyRec := structuralCopier(n)
	for _, o := range n.Outputs() {
		f := nb.NodeRefs[o.Driver]
		if len(m.Support(f)) > maxSupport {
			out.MarkOutput(o.Name, copyRec(o.Driver))
			continue
		}
		cover, err := FromBDD(m, f, tok)
		if err != nil {
			return nil, err
		}
		driver, err := FactorInto(cover, out, inIDs, tok)
		if err != nil {
			return nil, err
		}
		out.MarkOutput(o.Name, driver)
	}
	return out.Optimize(), nil
}

// structuralCopier starts a network with n's inputs and returns it, its
// input nodes by position, and a memoized copier that rebuilds any node
// of n (with its fanin cone) inside it.
func structuralCopier(n *logic.Network) (*logic.Network, []logic.NodeID, func(logic.NodeID) logic.NodeID) {
	out := logic.New(n.Name)
	inIDs := make([]logic.NodeID, n.NumInputs())
	remap := make([]logic.NodeID, n.NumNodes())
	for i := range remap {
		remap[i] = logic.InvalidNode
	}
	for pos, id := range n.Inputs() {
		inIDs[pos] = out.AddInput(n.Node(id).Name)
		remap[id] = inIDs[pos]
	}
	var copyRec func(id logic.NodeID) logic.NodeID
	copyRec = func(id logic.NodeID) logic.NodeID {
		if remap[id] != logic.InvalidNode {
			return remap[id]
		}
		node := n.Node(id)
		var res logic.NodeID
		switch node.Kind {
		case logic.KindConst0:
			res = out.AddConst(false)
		case logic.KindConst1:
			res = out.AddConst(true)
		default:
			fs := make([]logic.NodeID, len(node.Fanins))
			for i, f := range node.Fanins {
				fs[i] = copyRec(f)
			}
			res = out.AddGate(node.Kind, fs...)
		}
		remap[id] = res
		return res
	}
	return out, inIDs, copyRec
}
