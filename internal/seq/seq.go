// Package seq models sequential circuits (combinational core + D
// flip-flops) and implements the partitioning step of the paper's power
// estimator (Section 4.2.1, Figure 7): feedback flip-flops found by the
// enhanced MFVS are cut and become pseudo primary inputs, the remaining
// flip-flops are substituted by their next-state functions, and the
// result is a combinational block whose node probabilities the BDD engine
// can evaluate — with as few BDD variables as the cut allows.
package seq

import (
	"fmt"
	"math"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sgraph"
)

// FF describes one D flip-flop of a circuit.
type FF struct {
	// Name is the flip-flop's output signal name.
	Name string
	// NextState is the index (in Comb.Outputs()) of the pseudo-output
	// computing the flip-flop's next state.
	NextState int
	// Output is the input position (in Comb.Inputs()) of the pseudo-input
	// carrying the flip-flop's current state.
	Output int
	// Init is the initial value.
	Init int
}

// Circuit is a sequential circuit in the standard combinational view:
// flip-flop outputs are pseudo-inputs of Comb and next-state functions are
// pseudo-outputs.
type Circuit struct {
	Comb *logic.Network
	FFs  []FF
	// RealInputs lists input positions of Comb that are true primary
	// inputs; RealOutputs lists output indexes that are true primary
	// outputs.
	RealInputs  []int
	RealOutputs []int
}

// FromModel builds a Circuit from a parsed BLIF model.
func FromModel(m *blif.Model) (*Circuit, error) {
	c := &Circuit{Comb: m.Network}
	ffByOut := make(map[string]bool)
	ffByIn := make(map[string]bool)
	for _, l := range m.Latches {
		outPos := -1
		for pos, id := range m.Network.Inputs() {
			if m.Network.Node(id).Name == l.Output {
				outPos = pos
			}
		}
		nsIdx := m.Network.OutputByName(l.Input)
		if outPos < 0 || nsIdx < 0 {
			return nil, fmt.Errorf("seq: latch %s->%s not wired through network", l.Input, l.Output)
		}
		c.FFs = append(c.FFs, FF{Name: l.Output, NextState: nsIdx, Output: outPos, Init: l.Init})
		ffByOut[l.Output] = true
		ffByIn[l.Input] = true
	}
	for pos, id := range m.Network.Inputs() {
		if !ffByOut[m.Network.Node(id).Name] {
			c.RealInputs = append(c.RealInputs, pos)
		}
	}
	for idx, o := range m.Network.Outputs() {
		if !ffByIn[o.Name] {
			c.RealOutputs = append(c.RealOutputs, idx)
		}
	}
	return c, nil
}

// New assembles a Circuit directly from a combinational network and FF
// descriptions, for hand-built circuits (gen goes through FromModel).
// ffOutputs and ffNextStates are parallel: input position / output
// index per flip-flop.
func New(comb *logic.Network, ffOutputs []int, ffNextStates []int, names []string) (*Circuit, error) {
	if len(ffOutputs) != len(ffNextStates) {
		return nil, fmt.Errorf("seq: %d outputs vs %d next-states", len(ffOutputs), len(ffNextStates))
	}
	c := &Circuit{Comb: comb}
	isFFIn := make(map[int]bool)
	isFFOut := make(map[int]bool)
	for i := range ffOutputs {
		name := comb.Node(comb.Inputs()[ffOutputs[i]]).Name
		if names != nil && i < len(names) {
			name = names[i]
		}
		c.FFs = append(c.FFs, FF{Name: name, NextState: ffNextStates[i], Output: ffOutputs[i]})
		isFFIn[ffOutputs[i]] = true
		isFFOut[ffNextStates[i]] = true
	}
	for pos := range comb.Inputs() {
		if !isFFIn[pos] {
			c.RealInputs = append(c.RealInputs, pos)
		}
	}
	for idx := range comb.Outputs() {
		if !isFFOut[idx] {
			c.RealOutputs = append(c.RealOutputs, idx)
		}
	}
	return c, nil
}

// SGraph builds the structural dependency graph among flip-flops: an edge
// u -> v when flip-flop u's output lies in the transitive fanin of
// flip-flop v's next-state function.
func (c *Circuit) SGraph() *sgraph.Graph {
	names := make([]string, len(c.FFs))
	for i, ff := range c.FFs {
		names[i] = ff.Name
	}
	g := sgraph.New(len(c.FFs), names)
	inputNodeOfFF := make(map[logic.NodeID]int)
	for i, ff := range c.FFs {
		inputNodeOfFF[c.Comb.Inputs()[ff.Output]] = i
	}
	for vi, ff := range c.FFs {
		cone := c.Comb.FaninCone(c.Comb.Outputs()[ff.NextState].Driver)
		for id, in := range cone {
			if !in {
				continue
			}
			if ui, ok := inputNodeOfFF[logic.NodeID(id)]; ok {
				g.AddEdge(ui, vi)
			}
		}
	}
	return g
}

// Cut computes the set of flip-flops to cut using the enhanced MFVS.
func (c *Circuit) Cut(opts sgraph.Options) []int {
	sol := sgraph.MFVS(c.SGraph(), opts)
	return sol.Vertices
}

// Partition expands the circuit into a single combinational block:
// flip-flops in cut keep their outputs as pseudo primary inputs, all
// other flip-flop outputs are substituted by a copy of their next-state
// cone (one time-frame back). The cut must break every s-graph cycle or
// an error is returned.
//
// The returned PseudoInputs lists, for every input position of Block,
// the source: either a real primary input (FF < 0) or a cut flip-flop
// index.
type Partition struct {
	Block *logic.Network
	// Inputs describes Block's inputs: OrigInput is the position in the
	// original Comb inputs, FF is the cut flip-flop index (or -1 for a
	// real primary input).
	Inputs []PartitionInput
	// NextState[i] is the index in Block's outputs of the output that
	// carries cut[i]'s next-state function. It is named "ns_" plus the
	// flip-flop's name, with underscores appended while that name is
	// taken.
	NextState []int
}

// PartitionInput maps one Block input to its source.
type PartitionInput struct {
	OrigInput int
	FF        int
}

// Partition builds the expanded combinational block for a given cut.
func (c *Circuit) Partition(cut []int) (*Partition, error) {
	cutSet := make(map[int]bool, len(cut))
	for _, f := range cut {
		cutSet[f] = true
	}
	ffOfInputNode := make(map[logic.NodeID]int)
	for i, ff := range c.FFs {
		ffOfInputNode[c.Comb.Inputs()[ff.Output]] = i
	}
	out := logic.New(c.Comb.Name + "_partitioned")
	p := &Partition{Block: out}

	// state tracks the expansion status of each FF's substituted cone to
	// detect cycles not broken by the cut.
	const (
		unvisited = 0
		expanding = 1
		done      = 2
	)
	ffState := make([]int, len(c.FFs))
	ffRoot := make([]logic.NodeID, len(c.FFs))

	blockInput := make(map[string]logic.NodeID)
	addInput := func(name string, origPos, ffIdx int) logic.NodeID {
		if id, ok := blockInput[name]; ok {
			return id
		}
		id := out.AddInput(name)
		blockInput[name] = id
		p.Inputs = append(p.Inputs, PartitionInput{OrigInput: origPos, FF: ffIdx})
		return id
	}

	// copyCone clones the cone of a node, substituting FF outputs.
	// Memoization must be per-expansion-context-free: node copies are
	// context independent because substitution is name-free and global.
	memo := make(map[logic.NodeID]logic.NodeID)
	var expandFF func(ffIdx int) (logic.NodeID, error)
	var copyNode func(id logic.NodeID) (logic.NodeID, error)
	copyNode = func(id logic.NodeID) (logic.NodeID, error) {
		if v, ok := memo[id]; ok {
			return v, nil
		}
		node := c.Comb.Node(id)
		var res logic.NodeID
		switch node.Kind {
		case logic.KindInput:
			if ffIdx, isFF := ffOfInputNode[id]; isFF {
				if cutSet[ffIdx] {
					res = addInput(node.Name, c.ffInputPos(ffIdx), ffIdx)
				} else {
					r, err := expandFF(ffIdx)
					if err != nil {
						return logic.InvalidNode, err
					}
					res = r
				}
			} else {
				pos := c.inputPos(id)
				res = addInput(node.Name, pos, -1)
			}
		case logic.KindConst0:
			res = out.AddConst(false)
		case logic.KindConst1:
			res = out.AddConst(true)
		default:
			fs := make([]logic.NodeID, len(node.Fanins))
			for i, f := range node.Fanins {
				r, err := copyNode(f)
				if err != nil {
					return logic.InvalidNode, err
				}
				fs[i] = r
			}
			res = out.AddGate(node.Kind, fs...)
		}
		memo[id] = res
		return res, nil
	}
	expandFF = func(ffIdx int) (logic.NodeID, error) {
		switch ffState[ffIdx] {
		case done:
			return ffRoot[ffIdx], nil
		case expanding:
			return logic.InvalidNode, fmt.Errorf("seq: cut does not break cycle through flip-flop %s", c.FFs[ffIdx].Name)
		}
		ffState[ffIdx] = expanding
		root, err := copyNode(c.Comb.Outputs()[c.FFs[ffIdx].NextState].Driver)
		if err != nil {
			return logic.InvalidNode, err
		}
		ffState[ffIdx] = done
		ffRoot[ffIdx] = root
		return root, nil
	}

	for _, oi := range c.RealOutputs {
		o := c.Comb.Outputs()[oi]
		root, err := copyNode(o.Driver)
		if err != nil {
			return nil, err
		}
		out.MarkOutput(o.Name, root)
	}
	// Cut flip-flops' next-state functions are outputs of the block too:
	// the estimator needs their probabilities for fixed-point iteration.
	for _, ffIdx := range cut {
		ff := c.FFs[ffIdx]
		root, err := copyNode(c.Comb.Outputs()[ff.NextState].Driver)
		if err != nil {
			return nil, err
		}
		name := "ns_" + ff.Name
		for out.OutputByName(name) >= 0 {
			name += "_"
		}
		p.NextState = append(p.NextState, out.MarkOutput(name, root))
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("seq: partition produced invalid block: %w", err)
	}
	return p, nil
}

func (c *Circuit) inputPos(id logic.NodeID) int {
	for pos, in := range c.Comb.Inputs() {
		if in == id {
			return pos
		}
	}
	return -1
}

func (c *Circuit) ffInputPos(ffIdx int) int { return c.FFs[ffIdx].Output }

// PseudoInputCount returns how many of the partition's block inputs are
// cut flip-flops — the quantity the paper's Figure 7 argues should be
// minimized.
func (p *Partition) PseudoInputCount() int {
	n := 0
	for _, in := range p.Inputs {
		if in.FF >= 0 {
			n++
		}
	}
	return n
}

// SteadyOptions configures SteadyStateProbs.
type SteadyOptions struct {
	// InputProbs gives probabilities of the real primary inputs, indexed
	// by Comb input position (entries for FF positions are ignored).
	InputProbs []float64
	// Cut is the flip-flop cut (nil = compute via enhanced MFVS).
	Cut []int
	// Est is the iteration's probability engine and budget token (see
	// power.NodeProbs: the exact engine builds the block's BDDs once and
	// re-evaluates them every iteration); zero is power.Auto (exact up to
	// 24 inputs), no token.
	Est power.Options
}

// The fixed-point iteration on cut flip-flop probabilities runs at most
// steadyIterations times, and stops early once no cut probability moves
// more than steadyTolerance.
const (
	steadyIterations = 20
	steadyTolerance  = 1e-9
)

// SteadyStateProbs estimates steady-state signal probabilities of the
// expanded block: cut flip-flops start at probability 0.5 and are
// iterated to a fixed point of their next-state probabilities. It
// returns the partition used, its block inputs' probabilities at the
// fixed point and the final probabilities of every Block node. A trip
// or cancellation of the engine's token ends the iteration as an error.
func (c *Circuit) SteadyStateProbs(opts SteadyOptions) (*Partition, []float64, []float64, error) {
	cut := opts.Cut
	if cut == nil {
		cut = c.Cut(sgraph.DefaultOptions())
	}
	p, err := c.Partition(cut)
	if err != nil {
		return nil, nil, nil, err
	}
	block := p.Block
	inProbs := make([]float64, block.NumInputs())
	ffProb := make(map[int]float64)
	for pos, in := range p.Inputs {
		if in.FF >= 0 {
			inProbs[pos] = 0.5
			ffProb[in.FF] = 0.5
		} else {
			inProbs[pos] = opts.InputProbs[in.OrigInput]
		}
	}
	eval := power.NodeProbs(block, opts.Est)
	var nodeProbs []float64
	for it := 0; it < steadyIterations; it++ {
		if err := opts.Est.Budget.Err(); err != nil {
			return nil, nil, nil, err
		}
		nodeProbs, err = eval(inProbs)
		if err != nil {
			return nil, nil, nil, err
		}
		delta := 0.0
		for i, ffIdx := range cut {
			newP := nodeProbs[block.Outputs()[p.NextState[i]].Driver]
			delta = math.Max(delta, math.Abs(newP-ffProb[ffIdx]))
			ffProb[ffIdx] = newP
		}
		for pos, in := range p.Inputs {
			if in.FF >= 0 {
				inProbs[pos] = ffProb[in.FF]
			}
		}
		if delta < steadyTolerance {
			break
		}
	}
	return p, inProbs, nodeProbs, nil
}
