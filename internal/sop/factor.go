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
// inputs maps cover variables to existing network nodes.
func FactorInto(c *Cover, n *logic.Network, inputs []logic.NodeID) (logic.NodeID, error) {
	if len(inputs) != c.NumVars {
		return logic.InvalidNode, fmt.Errorf("sop: %d input nodes for %d vars", len(inputs), c.NumVars)
	}
	invCache := make(map[int]logic.NodeID)
	lit := func(v int, l Literal) logic.NodeID {
		if l == Pos {
			return inputs[v]
		}
		if id, ok := invCache[v]; ok {
			return id
		}
		id := n.AddNot(inputs[v])
		invCache[v] = id
		return id
	}
	var rec func(cubes []Cube) logic.NodeID
	rec = func(cubes []Cube) logic.NodeID {
		if len(cubes) == 0 {
			return n.AddConst(false)
		}
		// Single cube: an AND of its literals.
		if len(cubes) == 1 {
			var lits []logic.NodeID
			cube := cubes[0]
			for v := 0; v < c.NumVars; v++ {
				if l := cube.Literal(v); l != DontCare {
					lits = append(lits, lit(v, l))
				}
			}
			switch len(lits) {
			case 0:
				return n.AddConst(true)
			case 1:
				return lits[0]
			default:
				return n.AddAnd(lits...)
			}
		}
		// Most frequent literal.
		bestVar, bestLit, bestCount := -1, DontCare, 1
		for v := 0; v < c.NumVars; v++ {
			pos, neg := 0, 0
			for _, cube := range cubes {
				switch cube.Literal(v) {
				case Pos:
					pos++
				case Neg:
					neg++
				}
			}
			if pos > bestCount {
				bestVar, bestLit, bestCount = v, Pos, pos
			}
			if neg > bestCount {
				bestVar, bestLit, bestCount = v, Neg, neg
			}
		}
		if bestVar < 0 {
			// No shared literal: plain OR of cube ANDs.
			var terms []logic.NodeID
			for _, cube := range cubes {
				terms = append(terms, rec([]Cube{cube}))
			}
			return n.AddOr(terms...)
		}
		var quotient, remainder []Cube
		for _, cube := range cubes {
			if cube.Literal(bestVar) == bestLit {
				quotient = append(quotient, cube.WithLiteral(bestVar, DontCare))
			} else {
				remainder = append(remainder, cube)
			}
		}
		q := rec(quotient)
		l := lit(bestVar, bestLit)
		var term logic.NodeID
		if isConstTrue(n, q) {
			term = l
		} else {
			term = n.AddAnd(l, q)
		}
		if len(remainder) == 0 {
			return term
		}
		return n.AddOr(term, rec(remainder))
	}
	return rec(c.Cubes), nil
}

func isConstTrue(n *logic.Network, id logic.NodeID) bool {
	return n.Kind(id) == logic.KindConst1
}

// MaxSupport is the largest maxSupport flow.Config.Validate accepts from
// an untrusted configuration (as MaxCollapseSupport), and the widest the
// repository runs. A parity output's ISOP cover has 2^(support−1) cubes,
// and parity's BDD is too small for a node budget to stop the cover's
// construction: at support 20 one collapse takes ~18 s and ~340 MB on a
// 2-vCPU Xeon, and every two inputs more quadruple both.
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
		driver, err := FactorInto(cover, out, inIDs)
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
