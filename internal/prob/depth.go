package prob

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/logic"
)

// DefaultMaxFrontier is LimitedDepthBudget's local-support cap when the
// caller passes none.
const DefaultMaxFrontier = 16

// LimitedDepthBudget estimates signal probabilities with bounded
// reconvergence analysis, after Costa, Monteiro & Devadas [6] (cited by
// the paper): each node's probability is computed exactly over a local
// BDD of its fanin cone truncated `depth` levels back; the truncation
// frontier is treated as independent pseudo-inputs carrying their
// previously computed probabilities. depth 0 degenerates to Approximate;
// growing depth converges to Exact while keeping per-node cost bounded.
//
// maxFrontier caps the local support (BDD variable count); nodes whose
// frontier exceeds it fall back to the correlation-free formula. Pass 0
// for DefaultMaxFrontier.
//
// tok (nil = no budget, never cancelled) is polled once per node, and
// each node's local cone build runs under the token's BDD node budget
// (local BDDs are small by construction, but a hostile depth/frontier
// combination can still blow up). A tripped budget or cancellation
// aborts with the token's error.
func LimitedDepthBudget(n *logic.Network, inputProbs []float64, depth, maxFrontier int, tok *budget.T) ([]float64, error) {
	if len(inputProbs) != n.NumInputs() {
		panic(fmt.Sprintf("prob: %d input probs for %d inputs", len(inputProbs), n.NumInputs()))
	}
	if maxFrontier <= 0 {
		maxFrontier = DefaultMaxFrontier
	}
	if depth <= 0 {
		return Approximate(n, inputProbs), nil
	}
	p := make([]float64, n.NumNodes())
	inPos := make(map[logic.NodeID]int, n.NumInputs())
	for pos, id := range n.Inputs() {
		inPos[id] = pos
	}
	levels := n.Levels()

	for i := 0; i < n.NumNodes(); i++ {
		if err := tok.Err(); err != nil {
			return nil, err
		}
		id := logic.NodeID(i)
		node := n.Node(id)
		switch node.Kind {
		case logic.KindInput:
			p[i] = inputProbs[inPos[id]]
			continue
		case logic.KindConst0:
			p[i] = 0
			continue
		case logic.KindConst1:
			p[i] = 1
			continue
		}
		// Collect the local cone: walk fanins until the level difference
		// exceeds depth, registering frontier nodes.
		frontier := make(map[logic.NodeID]int) // node -> local var index
		var frontierOrder []logic.NodeID
		inCone := make(map[logic.NodeID]bool)
		overflow := false
		var collect func(logic.NodeID)
		collect = func(u logic.NodeID) {
			if overflow || inCone[u] {
				return
			}
			if _, isFrontier := frontier[u]; isFrontier {
				return
			}
			uk := n.Node(u).Kind
			atFrontier := uk == logic.KindInput || uk == logic.KindConst0 || uk == logic.KindConst1 ||
				levels[id]-levels[u] > depth
			if atFrontier {
				if len(frontier) >= maxFrontier {
					overflow = true
					return
				}
				frontier[u] = len(frontierOrder)
				frontierOrder = append(frontierOrder, u)
				return
			}
			inCone[u] = true
			for _, f := range n.Node(u).Fanins {
				collect(f)
			}
		}
		for _, f := range node.Fanins {
			collect(f)
		}
		if overflow {
			p[i] = localApprox(n, id, p)
			continue
		}
		// Build the local BDD bottom-up over the cone. Cone BDDs are
		// tiny (≤ maxFrontier variables, depth-capped), so hint the
		// manager small instead of paying circuit-scale tables per node.
		m := bdd.NewSized(len(frontierOrder), 4*(len(inCone)+len(frontierOrder)+1))
		m.SetBudget(tok)
		refs := make(map[logic.NodeID]bdd.Ref, len(inCone)+len(frontier))
		buildErr := bdd.CatchInterrupt(func() {
			for v, u := range frontierOrder {
				refs[u] = m.Var(v)
			}
			var build func(logic.NodeID) bdd.Ref
			build = func(u logic.NodeID) bdd.Ref {
				if r, ok := refs[u]; ok {
					return r
				}
				un := n.Node(u)
				var r bdd.Ref
				switch un.Kind {
				case logic.KindBuf:
					r = build(un.Fanins[0])
				case logic.KindNot:
					r = m.Not(build(un.Fanins[0]))
				case logic.KindAnd:
					r = bdd.True
					for _, f := range un.Fanins {
						r = m.And(r, build(f))
					}
				case logic.KindOr:
					r = bdd.False
					for _, f := range un.Fanins {
						r = m.Or(r, build(f))
					}
				case logic.KindXor:
					r = bdd.False
					for _, f := range un.Fanins {
						r = m.Xor(r, build(f))
					}
				default:
					panic(fmt.Sprintf("prob: unexpected kind %s in cone", un.Kind))
				}
				refs[u] = r
				return r
			}
			root := build(id)
			varProbs := make([]float64, len(frontierOrder))
			for v, u := range frontierOrder {
				varProbs[v] = p[u]
			}
			p[i] = m.Probability(root, varProbs)
		})
		if buildErr != nil {
			return nil, buildErr
		}
	}
	return p, nil
}

// localApprox applies the correlation-free formula to a single node from
// already-computed fanin probabilities.
func localApprox(n *logic.Network, id logic.NodeID, p []float64) float64 {
	node := n.Node(id)
	switch node.Kind {
	case logic.KindBuf:
		return p[node.Fanins[0]]
	case logic.KindNot:
		return 1 - p[node.Fanins[0]]
	case logic.KindAnd:
		v := 1.0
		for _, f := range node.Fanins {
			v *= p[f]
		}
		return v
	case logic.KindOr:
		v := 1.0
		for _, f := range node.Fanins {
			v *= 1 - p[f]
		}
		return 1 - v
	case logic.KindXor:
		v := 0.0
		for _, f := range node.Fanins {
			pf := p[f]
			v = v*(1-pf) + (1-v)*pf
		}
		return v
	}
	return 0
}
