// Package domino maps an inverter-free logic block onto domino cells and
// provides the area, capacitance and gate-type-penalty models the paper's
// power estimate Σ Si·Ci·Pi is built on (Sections 2 and 4.2).
//
// A domino cell (Figure 1 of the paper) is a dynamic NMOS pull-down
// network with a precharge/evaluate clock and a static output buffer. AND
// cells stack their inputs in series — which bounds usable fanin (the
// MaxSeries limit) and makes wide ANDs slower, motivating the penalty Pi.
// OR cells place inputs in parallel, bounded by MaxParallel.
package domino

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/phase"
)

// Library describes the domino cell family available to the mapper and
// the technology cost parameters.
type Library struct {
	// MaxSeries bounds AND-cell fanin (series NMOS stack height).
	MaxSeries int
	// MaxParallel bounds OR-cell fanin (parallel branch count).
	MaxParallel int
	// AndPenalty is the additional per-series-transistor penalty Pi of
	// AND-type cells beyond the first; OR cells have penalty 0. The
	// paper's experiments set the penalty to zero (pure switching
	// minimization); timing-aware flows raise it.
	AndPenalty float64
	// BaseCellArea is the area of a minimum domino cell (dynamic stage +
	// output buffer) in standard-cell units; each additional input adds
	// PerInputArea.
	BaseCellArea float64
	PerInputArea float64
	// InverterArea is the area of a boundary static inverter.
	InverterArea float64
	// InputCap is the capacitance one cell input presents to its driver;
	// WireCap is a fixed per-net wiring capacitance; OutputCap is the
	// load a primary output or boundary inverter presents.
	InputCap  float64
	WireCap   float64
	OutputCap float64
}

// DefaultLibrary returns the cost model used throughout the reproduction:
// unit input caps, the paper's experimental setting of zero AND penalty,
// and a 4-series / 8-parallel cell family typical of domino libraries.
func DefaultLibrary() Library {
	return Library{
		MaxSeries:    4,
		MaxParallel:  8,
		AndPenalty:   0,
		BaseCellArea: 2,
		PerInputArea: 1,
		InverterArea: 1,
		InputCap:     1,
		WireCap:      0,
		OutputCap:    1,
	}
}

// Cell is one mapped domino cell.
type Cell struct {
	// Node is the mapped network node this cell drives.
	Node logic.NodeID
	// Kind is logic.KindAnd or logic.KindOr.
	Kind logic.Kind
	// Width is the cell fanin (series stack height for AND, parallel
	// branch count for OR).
	Width int
	// Area in standard-cell units.
	Area float64
	// Load is the output capacitance Ci the cell drives (fanin pins of
	// consumers plus wire and output loads).
	Load float64
	// Penalty is the gate-type penalty Pi.
	Penalty float64
	// Size is the drive-strength multiplier assigned by timing resizing
	// (1 = minimum size). Upsizing scales the cell's area and the input
	// capacitance it presents to its drivers.
	Size float64
}

// Block is a technology-mapped domino block.
type Block struct {
	// Phase carries the boundary metadata (which inputs are inverted,
	// which outputs carry boundary inverters).
	Phase *phase.Result
	// Net is the width-legalized inverter-free network the cells
	// implement. Its interface matches Phase.Block's.
	Net *logic.Network
	// Cells lists the domino cells; CellOf maps a Net node to its index
	// in Cells, or -1.
	Cells  []Cell
	CellOf []int

	lib Library
}

// Library returns the library the block was mapped with.
func (b *Block) Library() Library { return b.lib }

// Map legalizes the block network against the library's width limits and
// assigns one domino cell per gate. Buffers are absorbed (domino cells
// already buffer their outputs).
func Map(r *phase.Result, lib Library) (*Block, error) {
	if lib.MaxSeries < 2 || lib.MaxParallel < 2 {
		return nil, fmt.Errorf("domino: library width limits must be >= 2")
	}
	if r.Block.HasInverters() {
		return nil, fmt.Errorf("domino: block contains inverters; phase assignment incomplete")
	}
	net, err := legalize(r.Block, lib)
	if err != nil {
		return nil, err
	}
	b := &Block{Phase: r, Net: net, lib: lib, CellOf: make([]int, net.NumNodes())}
	for i := range b.CellOf {
		b.CellOf[i] = -1
	}
	for i := 0; i < net.NumNodes(); i++ {
		id := logic.NodeID(i)
		kind := net.Kind(id)
		if kind != logic.KindAnd && kind != logic.KindOr {
			continue
		}
		width := len(net.Fanins(id))
		cell := Cell{
			Node:  id,
			Kind:  kind,
			Width: width,
			Area:  lib.BaseCellArea + float64(width)*lib.PerInputArea,
			Size:  1,
		}
		if kind == logic.KindAnd {
			cell.Penalty = lib.AndPenalty * float64(width-1)
		}
		b.CellOf[i] = len(b.Cells)
		b.Cells = append(b.Cells, cell)
	}
	b.RecomputeLoads()
	return b, nil
}

// legalize decomposes gates wider than the library limits into balanced
// trees of legal-width gates of the same kind.
func legalize(n *logic.Network, lib Library) (*logic.Network, error) {
	out := logic.New(n.Name + "_mapped")
	remap := make([]logic.NodeID, n.NumNodes())
	for _, id := range n.Inputs() {
		remap[id] = out.AddInput(n.Node(id).Name)
	}
	var split func(kind logic.Kind, fs []logic.NodeID, limit int) logic.NodeID
	split = func(kind logic.Kind, fs []logic.NodeID, limit int) logic.NodeID {
		if len(fs) == 1 {
			return fs[0]
		}
		if len(fs) <= limit {
			return out.AddGate(kind, fs...)
		}
		var groups []logic.NodeID
		for start := 0; start < len(fs); start += limit {
			end := start + limit
			if end > len(fs) {
				end = len(fs)
			}
			chunk := fs[start:end]
			if len(chunk) == 1 {
				groups = append(groups, chunk[0])
			} else {
				groups = append(groups, out.AddGate(kind, chunk...))
			}
		}
		return split(kind, groups, limit)
	}
	for i := 0; i < n.NumNodes(); i++ {
		id := logic.NodeID(i)
		node := n.Node(id)
		switch node.Kind {
		case logic.KindInput:
			continue
		case logic.KindConst0:
			remap[i] = out.AddConst(false)
		case logic.KindConst1:
			remap[i] = out.AddConst(true)
		case logic.KindBuf:
			remap[i] = remap[node.Fanins[0]]
		case logic.KindAnd, logic.KindOr:
			limit := lib.MaxSeries
			if node.Kind == logic.KindOr {
				limit = lib.MaxParallel
			}
			fs := make([]logic.NodeID, len(node.Fanins))
			for j, f := range node.Fanins {
				fs[j] = remap[f]
			}
			remap[i] = split(node.Kind, fs, limit)
		case logic.KindNot, logic.KindXor:
			return nil, fmt.Errorf("domino: illegal %s in inverter-free block", node.Kind)
		}
		if node.Name != "" && remap[i] != logic.InvalidNode {
			if out.Node(remap[i]).Name == "" {
				out.SetName(remap[i], node.Name)
			}
		}
	}
	for _, o := range n.Outputs() {
		out.MarkOutput(o.Name, remap[o.Driver])
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("domino: legalize produced invalid network: %w", err)
	}
	return out, nil
}

// RecomputeLoads refreshes every cell's Load from the current cell
// sizes (see NodeLoads).
func (b *Block) RecomputeLoads() {
	load := b.NodeLoads()
	for ci := range b.Cells {
		b.Cells[ci].Load = load[b.Cells[ci].Node]
	}
}

// NodeLoads returns the capacitive load on every Net node under current
// sizing: a node drives WireCap, plus one InputCap × consumer-size per
// consuming pin, plus OutputCap per primary output (or boundary
// inverter) it feeds. Each node's sum is taken in that order, consumers
// in ascending node id; timing's incremental sizer re-sums one driver's
// load in the same order, so its loads match these bit for bit.
func (b *Block) NodeLoads() []float64 {
	lib := b.lib
	load := make([]float64, b.Net.NumNodes())
	for i := range load {
		load[i] = lib.WireCap
	}
	for i := 0; i < b.Net.NumNodes(); i++ {
		id := logic.NodeID(i)
		consumerSize := 1.0
		if ci := b.CellOf[i]; ci >= 0 {
			consumerSize = b.Cells[ci].Size
		}
		for _, f := range b.Net.Fanins(id) {
			load[f] += lib.InputCap * consumerSize
		}
	}
	for _, o := range b.Net.Outputs() {
		load[o.Driver] += lib.OutputCap
	}
	return load
}

// DominoCellCount returns the number of domino cells.
func (b *Block) DominoCellCount() int { return len(b.Cells) }

// InverterCount returns the number of boundary static inverters.
func (b *Block) InverterCount() int {
	return b.Phase.InputInverterCount() + b.Phase.OutputInverterCount()
}

// CellCount returns the total standard-cell count: domino cells plus
// boundary inverters. This is the "Size" column of the paper's tables.
func (b *Block) CellCount() int { return b.DominoCellCount() + b.InverterCount() }

// Area returns the total area in standard-cell units under current
// sizing.
func (b *Block) Area() float64 {
	a := 0.0
	for i := range b.Cells {
		a += b.Cells[i].Area * b.Cells[i].Size
	}
	a += float64(b.InverterCount()) * b.lib.InverterArea
	return a
}
