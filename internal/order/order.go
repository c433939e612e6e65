// Package order implements BDD variable-ordering heuristics, including
// the one the paper proposes for domino blocks (Section 4.2.2):
//
//  1. variables are ordered in the reverse of the order in which circuit
//     inputs are first visited during a topological traversal of the
//     gates, and
//  2. gates at the same topological level are traversed in decreasing
//     order of the cardinality of their fanout cones.
//
// These two principles place a variable low in the BDD (near the
// terminals) when it is close to the primary inputs or feeds a large
// fanout cone, which maximizes node sharing in the highly convergent
// cone-heavy networks domino synthesis produces.
//
// All functions return a permutation of input *positions* suitable for
// bdd.NewWithOrder, whose manager bdd.BuildNetwork builds into: level l
// of the BDD decides input order[l].
package order

import (
	"math/rand"
	"sort"

	"repro/internal/logic"
)

// Topological returns the first-visit order of the primary inputs under
// the paper's gate traversal (level by level, ties broken by decreasing
// fanout-cone cardinality). This is the "topological ordering" row of
// Figure 10 — the baseline the paper improves on by reversing.
func Topological(n *logic.Network) []int {
	firstVisit := firstVisitSequence(n)
	return firstVisit
}

// ReverseTopological returns the paper's proposed order: the reverse of
// the first-visit sequence, so the earliest-visited input (nearest the
// primary inputs, largest cones) sits lowest in the BDD.
func ReverseTopological(n *logic.Network) []int {
	fv := firstVisitSequence(n)
	for i, j := 0, len(fv)-1; i < j; i, j = i+1, j-1 {
		fv[i], fv[j] = fv[j], fv[i]
	}
	return fv
}

// firstVisitSequence performs the traversal shared by Topological and
// ReverseTopological and returns input positions in first-visit order.
func firstVisitSequence(n *logic.Network) []int {
	levels := n.Levels()
	coneSizes := n.FanoutConeSizes()
	posOf := make(map[logic.NodeID]int, n.NumInputs())
	for pos, id := range n.Inputs() {
		posOf[id] = pos
	}

	type gateRec struct {
		id    logic.NodeID
		level int
		cone  int
	}
	var gates []gateRec
	for i := 0; i < n.NumNodes(); i++ {
		id := logic.NodeID(i)
		if n.Kind(id).IsGate() {
			gates = append(gates, gateRec{id, levels[i], coneSizes[i]})
		}
	}
	sort.SliceStable(gates, func(a, b int) bool {
		if gates[a].level != gates[b].level {
			return gates[a].level < gates[b].level
		}
		return gates[a].cone > gates[b].cone
	})

	visited := make([]bool, n.NumInputs())
	seq := make([]int, 0, n.NumInputs())
	visitInput := func(id logic.NodeID) {
		if pos, ok := posOf[id]; ok && !visited[pos] {
			visited[pos] = true
			seq = append(seq, pos)
		}
	}
	for _, g := range gates {
		for _, f := range n.Fanins(g.id) {
			if n.Kind(f) == logic.KindInput {
				visitInput(f)
			}
		}
	}
	// Inputs never feeding a gate (e.g. direct input→output wires or
	// unused inputs) come last in declaration order.
	for pos := range visited {
		if !visited[pos] {
			seq = append(seq, pos)
		}
	}
	return seq
}

// Natural returns the identity order (inputs in declaration order).
func Natural(n *logic.Network) []int {
	o := make([]int, n.NumInputs())
	for i := range o {
		o[i] = i
	}
	return o
}

// Random returns a seeded random permutation, used as an ordering
// baseline in the ablation benchmarks.
func Random(n *logic.Network, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n.NumInputs())
}

// DFS returns inputs in depth-first first-visit order from the outputs,
// a common structural ordering baseline (Malik-style) that ignores the
// paper's level/fanout refinements.
func DFS(n *logic.Network) []int {
	posOf := make(map[logic.NodeID]int, n.NumInputs())
	for pos, id := range n.Inputs() {
		posOf[id] = pos
	}
	visited := make([]bool, n.NumNodes())
	taken := make([]bool, n.NumInputs())
	seq := make([]int, 0, n.NumInputs())
	var rec func(logic.NodeID)
	rec = func(id logic.NodeID) {
		if visited[id] {
			return
		}
		visited[id] = true
		if pos, ok := posOf[id]; ok {
			if !taken[pos] {
				taken[pos] = true
				seq = append(seq, pos)
			}
			return
		}
		for _, f := range n.Fanins(id) {
			rec(f)
		}
	}
	for _, o := range n.Outputs() {
		rec(o.Driver)
	}
	for pos := range taken {
		if !taken[pos] {
			seq = append(seq, pos)
		}
	}
	return seq
}
