package logic

import "math/bits"

// FaninCone returns the set of node ids in the transitive fanin of root,
// including root itself and any inputs/constants reached. The result is a
// boolean membership slice of length NumNodes.
func (n *Network) FaninCone(root NodeID) []bool {
	in := make([]bool, len(n.nodes))
	n.markCone(root, in)
	return in
}

func (n *Network) markCone(root NodeID, in []bool) {
	// Iterative DFS: networks can be deep and Go stacks, while growable,
	// make recursion needlessly slow.
	stack := []NodeID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[id] {
			continue
		}
		in[id] = true
		stack = append(stack, n.nodes[id].Fanins...)
	}
}

// OutputCones returns, for each primary output, its transitive fanin cone
// as a bitset over node ids: bit id%64 of word id/64 is set when node id
// is in the cone.
//
// All cones come from one descending sweep. Nodes are numbered
// topologically, so by the time the sweep reaches a node every gate it
// feeds has passed on the set of outputs reaching it.
func (n *Network) OutputCones() [][]uint64 {
	words := (len(n.nodes) + 63) / 64
	outWords := (len(n.outputs) + 63) / 64
	// reach[id*outWords:][:outWords] is the set of outputs whose cone
	// holds node id.
	reach := make([]uint64, len(n.nodes)*outWords)
	for i, o := range n.outputs {
		reach[int(o.Driver)*outWords+i/64] |= 1 << (uint(i) % 64)
	}
	flat := make([]uint64, words*len(n.outputs))
	for id := len(n.nodes) - 1; id >= 0; id-- {
		r := reach[id*outWords : (id+1)*outWords]
		bit := uint64(1) << (uint(id) % 64)
		for w, outs := range r {
			if outs == 0 {
				continue
			}
			for _, f := range n.nodes[id].Fanins {
				reach[int(f)*outWords+w] |= outs
			}
			for ; outs != 0; outs &= outs - 1 {
				flat[(w*64+bits.TrailingZeros64(outs))*words+id/64] |= bit
			}
		}
	}
	cones := make([][]uint64, len(n.outputs))
	for i := range cones {
		cones[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	return cones
}

// ConeOverlap computes the paper's overlap measure for two cones given as
// OutputCones bitsets:
//
//	O(i,j) = |Di ∩ Dj| / (|Di| + |Dj|)
//
// It represents the worst-case duplication penalty for incompatible phase
// assignments of outputs i and j (Section 4.1). The result is in [0, 0.5].
func ConeOverlap(di, dj []uint64) float64 {
	if len(di) != len(dj) {
		panic("logic: cone length mismatch")
	}
	inter, sizes := 0, 0
	for w, x := range di {
		y := dj[w]
		inter += bits.OnesCount64(x & y)
		sizes += bits.OnesCount64(x) + bits.OnesCount64(y)
	}
	if sizes == 0 {
		return 0
	}
	return float64(inter) / float64(sizes)
}

// FanoutConeSizes returns, for every node, the cardinality of its
// transitive fanout cone (including the node itself). This is the quantity
// the paper's BDD variable-ordering heuristic sorts gates by (Section
// 4.2.2, principle 2).
//
// Computed by a reverse topological sweep over fanout bitsets; O(N·M/64)
// words touched where M is node count, which is fine at the circuit sizes
// this reproduction targets.
func (n *Network) FanoutConeSizes() []int {
	num := len(n.nodes)
	words := (num + 63) / 64
	// coneBits[i] holds the fanout cone of node i as a bitset.
	coneBits := make([][]uint64, num)
	lists := n.FanoutLists()
	sizes := make([]int, num)
	for i := num - 1; i >= 0; i-- {
		bs := make([]uint64, words)
		bs[i/64] |= 1 << (uint(i) % 64)
		for _, fo := range lists[i] {
			fb := coneBits[fo]
			for w := range bs {
				bs[w] |= fb[w]
			}
		}
		coneBits[i] = bs
		c := 0
		for _, w := range bs {
			c += bits.OnesCount64(w)
		}
		sizes[i] = c
	}
	return sizes
}
