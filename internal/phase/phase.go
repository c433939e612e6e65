// Package phase implements output phase assignment for domino synthesis —
// the paper's core contribution.
//
// Domino logic is non-inverting, so a block must be synthesized without
// internal inverters. Following Puri et al. [15], inverters are removed by
// choosing a phase for every primary output (positive = no inverter at the
// output boundary, negative = one static inverter at the boundary) and
// pushing the remaining inverters back to the primary inputs with De
// Morgan's law. Conflicting polarity demands on shared logic ("trapped
// inverters") force duplication. Apply performs this construction; MinArea
// reproduces the minimum-area baseline ("MA" in the paper's tables) and
// MinPower the paper's pairwise cost-function heuristic ("MP").
package phase

import (
	"fmt"

	"repro/internal/logic"
)

// Assignment selects a phase per primary output: false = positive phase
// (block drives the output directly), true = negative phase (block
// computes the complement; a static inverter at the boundary restores the
// output value). Note, as the paper stresses, phase is about inverter
// placement, not about implementing a different function.
type Assignment []bool

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// String renders the assignment as a +/- string in output order.
func (a Assignment) String() string {
	b := make([]byte, len(a))
	for i, neg := range a {
		if neg {
			b[i] = '-'
		} else {
			b[i] = '+'
		}
	}
	return string(b)
}

// AllPositive returns the all-positive-phase assignment for n outputs.
func AllPositive(n int) Assignment { return make(Assignment, n) }

// BlockInput describes one input of the inverter-free block.
type BlockInput struct {
	// InputPos is the position of the source primary input in the
	// original network's Inputs().
	InputPos int
	// Inverted reports whether this block input carries the complement of
	// the source input, supplied by a static inverter at the block's
	// input boundary.
	Inverted bool
}

// BlockOutput describes one output of the inverter-free block.
type BlockOutput struct {
	// OutputIdx is the index of the corresponding original primary
	// output.
	OutputIdx int
	// Negated reports whether the block computes the complement of the
	// original output, i.e. the output was assigned negative phase and a
	// static inverter at the output boundary restores it.
	Negated bool
}

// Result is the outcome of applying a phase assignment: an inverter-free
// block plus boundary metadata.
type Result struct {
	Original   *logic.Network
	Assignment Assignment
	// Block is the inverter-free network implementing every output in its
	// assigned phase. Block inputs correspond 1:1 to Inputs; block
	// outputs correspond 1:1 to Outputs.
	Block   *logic.Network
	Inputs  []BlockInput
	Outputs []BlockOutput
}

// InputInverterCount returns the number of static inverters required at
// the block's input boundary.
func (r *Result) InputInverterCount() int {
	c := 0
	for _, bi := range r.Inputs {
		if bi.Inverted {
			c++
		}
	}
	return c
}

// OutputInverterCount returns the number of static inverters required at
// the block's output boundary.
func (r *Result) OutputInverterCount() int {
	c := 0
	for _, bo := range r.Outputs {
		if bo.Negated {
			c++
		}
	}
	return c
}

// BlockInputProbs maps original input probabilities (by input position)
// to block input probabilities, complementing where the block input is
// inverted.
func (r *Result) BlockInputProbs(inputProbs []float64) []float64 {
	out := make([]float64, len(r.Inputs))
	for i, bi := range r.Inputs {
		p := inputProbs[bi.InputPos]
		if bi.Inverted {
			p = 1 - p
		}
		out[i] = p
	}
	return out
}

// Apply pushes inverters out of the network under the given phase
// assignment and returns the inverter-free block. The network must be an
// AND/OR/NOT/BUF/CONST network (run logic.Network.DecomposeXor first if
// needed).
//
// The construction builds, for every (node, polarity) pair demanded by
// the outputs, one block node, memoized so shared logic with compatible
// polarity demands is shared and conflicting demands are duplicated —
// exactly the trapped-inverter duplication of the paper's Figure 4.
func Apply(n *logic.Network, asg Assignment) (*Result, error) {
	if len(asg) != n.NumOutputs() {
		return nil, fmt.Errorf("phase: assignment for %d outputs, network has %d", len(asg), n.NumOutputs())
	}
	if n.CountKind(logic.KindXor) > 0 {
		return nil, fmt.Errorf("phase: network contains XOR gates; DecomposeXor first")
	}
	block := logic.New(n.Name + "_domino")
	r := &Result{
		Original:   n,
		Assignment: asg.Clone(),
		Block:      block,
	}

	inputPos := make(map[logic.NodeID]int, n.NumInputs())
	for pos, id := range n.Inputs() {
		inputPos[id] = pos
	}

	// memo[2*id+pol] is the block node implementing original node id in
	// the requested polarity (pol 0 = positive, 1 = complemented).
	memo := make(map[int64]logic.NodeID)

	var build func(id logic.NodeID, neg bool) logic.NodeID
	build = func(id logic.NodeID, neg bool) logic.NodeID {
		key := int64(id) << 1
		if neg {
			key |= 1
		}
		if v, ok := memo[key]; ok {
			return v
		}
		node := n.Node(id)
		var res logic.NodeID
		switch node.Kind {
		case logic.KindInput:
			pos := inputPos[id]
			name := node.Name
			if neg {
				name += "_bar"
			}
			res = block.AddInput(name)
			r.Inputs = append(r.Inputs, BlockInput{InputPos: pos, Inverted: neg})
		case logic.KindConst0:
			res = block.AddConst(neg)
		case logic.KindConst1:
			res = block.AddConst(!neg)
		case logic.KindBuf:
			res = build(node.Fanins[0], neg)
		case logic.KindNot:
			res = build(node.Fanins[0], !neg)
		case logic.KindAnd, logic.KindOr:
			kind := node.Kind
			if neg {
				// De Morgan: the complemented gate becomes its dual over
				// complemented fanins.
				if kind == logic.KindAnd {
					kind = logic.KindOr
				} else {
					kind = logic.KindAnd
				}
			}
			fs := make([]logic.NodeID, len(node.Fanins))
			for i, f := range node.Fanins {
				fs[i] = build(f, neg)
			}
			res = block.AddGate(kind, fs...)
		default:
			panic(fmt.Sprintf("phase: unexpected kind %s", node.Kind))
		}
		memo[key] = res
		return res
	}

	for idx, o := range n.Outputs() {
		neg := asg[idx]
		driver := build(o.Driver, neg)
		block.MarkOutput(o.Name, driver)
		r.Outputs = append(r.Outputs, BlockOutput{OutputIdx: idx, Negated: neg})
	}
	if block.HasInverters() {
		return nil, fmt.Errorf("phase: internal error: block still has inverters")
	}
	if err := block.Validate(); err != nil {
		return nil, fmt.Errorf("phase: invalid block: %w", err)
	}
	return r, nil
}

// ApplyUnion is Apply with every output listed twice: union output
// j < k is output j in positive phase, and j ≥ k is output j−k negated.
// Since Apply memoizes per (node, polarity), every assignment's block is
// the union block's subgraph induced by its outputs' cones.
func ApplyUnion(n *logic.Network) (*Result, error) {
	k := n.NumOutputs()
	union := n.Clone()
	for _, o := range n.Outputs() {
		name := o.Name + "__coneneg"
		for union.OutputByName(name) >= 0 {
			name += "_"
		}
		union.MarkOutput(name, o.Driver)
	}
	asg := make(Assignment, 2*k)
	for j := k; j < 2*k; j++ {
		asg[j] = true
	}
	return Apply(union, asg)
}

// Reconstructed builds a plain network with the original interface from
// the block: input-boundary inverters feed the inverted block inputs and
// output-boundary inverters restore negative-phase outputs. It is the
// functional-equivalence witness used by the test suite (the
// reconstruction must be equivalent to the original network).
func (r *Result) Reconstructed() *logic.Network {
	n := r.Original
	out := logic.New(n.Name + "_reconstructed")
	// Original inputs.
	origIn := make([]logic.NodeID, n.NumInputs())
	for pos, id := range n.Inputs() {
		origIn[pos] = out.AddInput(n.Node(id).Name)
	}
	// Block inputs in terms of original inputs.
	blockIn := make([]logic.NodeID, len(r.Inputs))
	for i, bi := range r.Inputs {
		if bi.Inverted {
			blockIn[i] = out.AddNot(origIn[bi.InputPos])
		} else {
			blockIn[i] = origIn[bi.InputPos]
		}
	}
	// Copy block gates.
	remap := make([]logic.NodeID, r.Block.NumNodes())
	inPos := make(map[logic.NodeID]int, len(r.Inputs))
	for pos, id := range r.Block.Inputs() {
		inPos[id] = pos
	}
	for i := 0; i < r.Block.NumNodes(); i++ {
		id := logic.NodeID(i)
		node := r.Block.Node(id)
		switch node.Kind {
		case logic.KindInput:
			remap[i] = blockIn[inPos[id]]
		case logic.KindConst0:
			remap[i] = out.AddConst(false)
		case logic.KindConst1:
			remap[i] = out.AddConst(true)
		default:
			fs := make([]logic.NodeID, len(node.Fanins))
			for j, f := range node.Fanins {
				fs[j] = remap[f]
			}
			remap[i] = out.AddGate(node.Kind, fs...)
		}
	}
	// Outputs, restoring polarity.
	for bi, bo := range r.Outputs {
		driver := remap[r.Block.Outputs()[bi].Driver]
		if bo.Negated {
			driver = out.AddNot(driver)
		}
		out.MarkOutput(n.Outputs()[bo.OutputIdx].Name, driver)
	}
	return out
}
