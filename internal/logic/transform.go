package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Rebuild copies the reachable part of the network (transitive fanin of
// the outputs) into a fresh network, dropping dangling nodes. Inputs are
// always preserved, even if unused, so that network interfaces stay
// stable across optimization passes.
func (n *Network) Rebuild() *Network {
	keep := make([]bool, len(n.nodes))
	for _, o := range n.outputs {
		n.markCone(o.Driver, keep)
	}
	out := New(n.Name)
	remap := make([]NodeID, len(n.nodes))
	for i := range remap {
		remap[i] = InvalidNode
	}
	// Inputs first, preserving order.
	for _, id := range n.inputs {
		remap[id] = out.AddInput(n.nodes[id].Name)
	}
	for i := range n.nodes {
		id := NodeID(i)
		if !keep[i] || n.nodes[i].Kind == KindInput {
			continue
		}
		node := &n.nodes[i]
		var nid NodeID
		switch node.Kind {
		case KindConst0:
			nid = out.AddConst(false)
		case KindConst1:
			nid = out.AddConst(true)
		default:
			fs := make([]NodeID, len(node.Fanins))
			for j, f := range node.Fanins {
				fs[j] = remap[f]
			}
			nid = out.AddGate(node.Kind, fs...)
		}
		if node.Name != "" {
			out.SetName(nid, node.Name)
		}
		remap[id] = nid
	}
	for _, o := range n.outputs {
		out.MarkOutput(o.Name, remap[o.Driver])
	}
	return out
}

// signature is a structural hash key: kind plus canonicalized fanin list.
func signature(kind Kind, fanins []NodeID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", kind)
	if kind == KindAnd || kind == KindOr || kind == KindXor {
		fs := append([]NodeID(nil), fanins...)
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		for _, f := range fs {
			fmt.Fprintf(&b, "%d,", f)
		}
	} else {
		for _, f := range fanins {
			fmt.Fprintf(&b, "%d,", f)
		}
	}
	return b.String()
}

// Optimize runs the technology-independent cleanup pipeline used before
// phase assignment: constant propagation, double-inverter and buffer
// elimination, duplicate-fanin simplification, structural hashing (common
// subexpression elimination) and a dead-node sweep. The result computes
// the same functions (see TestOptimizePreservesFunction).
func (n *Network) Optimize() *Network {
	out := New(n.Name)
	remap := make([]NodeID, len(n.nodes))
	// polarity tracking: simplification may express a node as the
	// complement of another; inverted[i] reports whether remap[i] must be
	// complemented. We materialize inverters lazily via notOf.
	hash := make(map[string]NodeID)
	var const0, const1 NodeID = InvalidNode, InvalidNode
	getConst := func(v bool) NodeID {
		if v {
			if const1 == InvalidNode {
				const1 = out.AddConst(true)
			}
			return const1
		}
		if const0 == InvalidNode {
			const0 = out.AddConst(false)
		}
		return const0
	}
	notCache := make(map[NodeID]NodeID)
	notOf := func(a NodeID) NodeID {
		switch out.nodes[a].Kind {
		case KindConst0:
			return getConst(true)
		case KindConst1:
			return getConst(false)
		case KindNot:
			return out.nodes[a].Fanins[0]
		}
		if v, ok := notCache[a]; ok {
			return v
		}
		v := out.AddNot(a)
		notCache[a] = v
		notCache[v] = a
		return v
	}
	hashedGate := func(kind Kind, fanins ...NodeID) NodeID {
		sig := signature(kind, fanins)
		if v, ok := hash[sig]; ok {
			return v
		}
		v := out.AddGate(kind, fanins...)
		hash[sig] = v
		return v
	}

	isConst := func(id NodeID) (bool, bool) {
		switch out.nodes[id].Kind {
		case KindConst0:
			return true, false
		case KindConst1:
			return true, true
		}
		return false, false
	}

	for _, id := range n.inputs {
		remap[id] = out.AddInput(n.nodes[id].Name)
	}
	for i := range n.nodes {
		node := &n.nodes[i]
		if node.Kind == KindInput {
			continue
		}
		switch node.Kind {
		case KindConst0:
			remap[i] = getConst(false)
		case KindConst1:
			remap[i] = getConst(true)
		case KindBuf:
			remap[i] = remap[node.Fanins[0]]
		case KindNot:
			remap[i] = notOf(remap[node.Fanins[0]])
		case KindAnd, KindOr:
			// Identity/absorbing constants, duplicate removal,
			// complement detection (a·ā=0, a+ā=1).
			identity := node.Kind == KindAnd // AND identity is 1, absorber 0
			var fs []NodeID
			seen := make(map[NodeID]bool)
			absorbed := false
			for _, f := range node.Fanins {
				rf := remap[f]
				if c, v := isConst(rf); c {
					if v == identity {
						continue // identity element, drop
					}
					absorbed = true
					break
				}
				if seen[rf] {
					continue
				}
				seen[rf] = true
				fs = append(fs, rf)
			}
			switch {
			case absorbed:
				remap[i] = getConst(!identity)
			case len(fs) == 0:
				remap[i] = getConst(identity)
			case len(fs) == 1:
				remap[i] = fs[0]
			default:
				// Complement pair check.
				comp := false
				for _, f := range fs {
					if out.nodes[f].Kind == KindNot && seen[out.nodes[f].Fanins[0]] {
						comp = true
						break
					}
				}
				if comp {
					remap[i] = getConst(!identity)
				} else {
					remap[i] = hashedGate(node.Kind, fs...)
				}
			}
		case KindXor:
			// Pairs cancel; constants fold into a parity flip.
			flip := false
			count := make(map[NodeID]int)
			var order []NodeID
			for _, f := range node.Fanins {
				rf := remap[f]
				if c, v := isConst(rf); c {
					if v {
						flip = !flip
					}
					continue
				}
				// Normalize complemented fanins: x̄ ⊕ y = x ⊕ y ⊕ 1.
				if out.nodes[rf].Kind == KindNot {
					flip = !flip
					rf = out.nodes[rf].Fanins[0]
				}
				if count[rf] == 0 {
					order = append(order, rf)
				}
				count[rf]++
			}
			var fs []NodeID
			for _, f := range order {
				if count[f]%2 == 1 {
					fs = append(fs, f)
				}
			}
			var v NodeID
			switch len(fs) {
			case 0:
				v = getConst(false)
			case 1:
				v = fs[0]
			default:
				v = hashedGate(KindXor, fs...)
			}
			if flip {
				v = notOf(v)
			}
			remap[i] = v
		}
		if node.Name != "" && remap[i] != InvalidNode && out.nodes[remap[i]].Name == "" {
			out.SetName(remap[i], node.Name)
		}
	}
	for _, o := range n.outputs {
		out.MarkOutput(o.Name, remap[o.Driver])
	}
	return out.Rebuild()
}

// DecomposeXor rewrites every XOR gate into AND/OR/NOT form:
// a⊕b = (a·b̄)+(ā·b), applied left-to-right for n-ary gates. Phase
// assignment requires a unate-friendly AND/OR/NOT network, so this pass
// runs before it.
func (n *Network) DecomposeXor() *Network {
	out := New(n.Name)
	remap := make([]NodeID, len(n.nodes))
	for _, id := range n.inputs {
		remap[id] = out.AddInput(n.nodes[id].Name)
	}
	for i := range n.nodes {
		node := &n.nodes[i]
		switch node.Kind {
		case KindInput:
			continue
		case KindConst0:
			remap[i] = out.AddConst(false)
		case KindConst1:
			remap[i] = out.AddConst(true)
		case KindXor:
			acc := remap[node.Fanins[0]]
			for _, f := range node.Fanins[1:] {
				b := remap[f]
				na := out.AddNot(acc)
				nb := out.AddNot(b)
				acc = out.AddOr(out.AddAnd(acc, nb), out.AddAnd(na, b))
			}
			remap[i] = acc
		default:
			fs := make([]NodeID, len(node.Fanins))
			for j, f := range node.Fanins {
				fs[j] = remap[f]
			}
			remap[i] = out.AddGate(node.Kind, fs...)
		}
		if node.Name != "" {
			out.SetName(remap[i], node.Name)
		}
	}
	for _, o := range n.outputs {
		out.MarkOutput(o.Name, remap[o.Driver])
	}
	return out
}
