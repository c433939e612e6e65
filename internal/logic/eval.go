package logic

import "fmt"

// Eval evaluates the network for a single input assignment given as a
// slice parallel to Inputs(). It returns one value per node; output values
// can be extracted via Outputs()[i].Driver. The values slice may be reused
// across calls by passing it as scratch (pass nil to allocate).
func (n *Network) Eval(inputValues []bool, scratch []bool) []bool {
	if len(inputValues) != len(n.inputs) {
		panic(fmt.Sprintf("logic: Eval got %d input values, want %d", len(inputValues), len(n.inputs)))
	}
	values := scratch
	if cap(values) < len(n.nodes) {
		values = make([]bool, len(n.nodes))
	}
	values = values[:len(n.nodes)]
	for i, id := range n.inputs {
		values[id] = inputValues[i]
	}
	for i := range n.nodes {
		node := &n.nodes[i]
		switch node.Kind {
		case KindInput:
			// Already set.
		case KindConst0:
			values[i] = false
		case KindConst1:
			values[i] = true
		case KindBuf:
			values[i] = values[node.Fanins[0]]
		case KindNot:
			values[i] = !values[node.Fanins[0]]
		case KindAnd:
			v := true
			for _, f := range node.Fanins {
				v = v && values[f]
			}
			values[i] = v
		case KindOr:
			v := false
			for _, f := range node.Fanins {
				v = v || values[f]
			}
			values[i] = v
		case KindXor:
			v := false
			for _, f := range node.Fanins {
				v = v != values[f]
			}
			values[i] = v
		}
	}
	return values
}

// EvalWide evaluates the network for 64 packed input assignments at once.
// inputWords is parallel to Inputs(): bit k of inputWords[i] is the value
// of input i under assignment k, and bit k of the returned per-node words
// is that node's value under assignment k — one gate evaluation per
// machine word instead of per vector, the classic word-level bit-parallel
// simulation trick. Lanes are fully independent; callers simulating fewer
// than 64 assignments mask the surplus lanes when consuming the result.
// The words slice may be reused across calls by passing it as scratch
// (pass nil to allocate).
func (n *Network) EvalWide(inputWords []uint64, scratch []uint64) []uint64 {
	if len(inputWords) != len(n.inputs) {
		panic(fmt.Sprintf("logic: EvalWide got %d input words, want %d", len(inputWords), len(n.inputs)))
	}
	words := scratch
	if cap(words) < len(n.nodes) {
		words = make([]uint64, len(n.nodes))
	}
	words = words[:len(n.nodes)]
	for i, id := range n.inputs {
		words[id] = inputWords[i]
	}
	for i := range n.nodes {
		node := &n.nodes[i]
		switch node.Kind {
		case KindInput:
			// Already set.
		case KindConst0:
			words[i] = 0
		case KindConst1:
			words[i] = ^uint64(0)
		case KindBuf:
			words[i] = words[node.Fanins[0]]
		case KindNot:
			words[i] = ^words[node.Fanins[0]]
		case KindAnd:
			v := ^uint64(0)
			for _, f := range node.Fanins {
				v &= words[f]
			}
			words[i] = v
		case KindOr:
			v := uint64(0)
			for _, f := range node.Fanins {
				v |= words[f]
			}
			words[i] = v
		case KindXor:
			v := uint64(0)
			for _, f := range node.Fanins {
				v ^= words[f]
			}
			words[i] = v
		}
	}
	return words
}

// EvalOutputs evaluates the network and returns just the output values in
// output order.
func (n *Network) EvalOutputs(inputValues []bool) []bool {
	values := n.Eval(inputValues, nil)
	outs := make([]bool, len(n.outputs))
	for i, o := range n.outputs {
		outs[i] = values[o.Driver]
	}
	return outs
}
