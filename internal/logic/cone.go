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
	// make recursion needlessly slow for the hot cone computations the
	// phase assigner performs per output pair.
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
// as a membership slice.
func (n *Network) OutputCones() [][]bool {
	cones := make([][]bool, len(n.outputs))
	for i, o := range n.outputs {
		cones[i] = n.FaninCone(o.Driver)
	}
	return cones
}

// ConeOverlap computes the paper's overlap measure for two cones given as
// membership slices:
//
//	O(i,j) = |Di ∩ Dj| / (|Di| + |Dj|)
//
// It represents the worst-case duplication penalty for incompatible phase
// assignments of outputs i and j (Section 4.1). The result is in [0, 0.5].
func ConeOverlap(di, dj []bool) float64 {
	if len(di) != len(dj) {
		panic("logic: cone length mismatch")
	}
	inter, si, sj := 0, 0, 0
	for k := range di {
		if di[k] {
			si++
		}
		if dj[k] {
			sj++
		}
		if di[k] && dj[k] {
			inter++
		}
	}
	if si+sj == 0 {
		return 0
	}
	return float64(inter) / float64(si+sj)
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
