// Package timing provides the delay model and the transistor-resizing
// pass used by the paper's second experiment (Table 2): after technology
// mapping, cells are resized to meet a clock target, which inflates loads
// and power and can "undo" the optimizations of the phase assignment.
//
// The delay model captures the structural facts the paper's penalty P_i
// encodes: domino AND cells stack transistors in series and get slower
// with width, OR cells do not; every cell slows down with output load and
// speeds up with drive strength (size).
package timing

import (
	"fmt"
	"sort"

	"repro/internal/domino"
	"repro/internal/logic"
)

// Params are the delay-model coefficients, in arbitrary consistent time
// units.
type Params struct {
	// Intrinsic is the base delay of a minimum-size domino cell.
	Intrinsic float64
	// SeriesDelay is added per series transistor beyond the first (AND
	// stacks only).
	SeriesDelay float64
	// LoadDelay scales the load-dependent term Load/Size.
	LoadDelay float64
	// InverterDelay is the delay of a boundary static inverter.
	InverterDelay float64
	// MaxSize caps the drive strength resizing may assign.
	MaxSize float64
	// SizeStep is the multiplicative upsizing step.
	SizeStep float64
}

// DefaultParams returns the coefficients used across the reproduction.
func DefaultParams() Params {
	return Params{
		Intrinsic:     1.0,
		SeriesDelay:   0.15,
		LoadDelay:     0.5,
		InverterDelay: 0.5,
		MaxSize:       8,
		SizeStep:      1.26, // ~2^(1/3): three steps double the drive
	}
}

// CellDelay returns the delay of one mapped cell under the model.
func CellDelay(c *domino.Cell, p Params) float64 {
	d := p.Intrinsic + p.LoadDelay*c.Load/c.Size
	if c.Kind == logic.KindAnd {
		d += p.SeriesDelay * float64(c.Width-1)
	}
	return d
}

// Analysis holds arrival times for a mapped block.
type Analysis struct {
	// Arrival is the worst arrival time at each Net node's output.
	Arrival []float64
	// Critical is the block's worst output arrival including boundary
	// inverters on both sides.
	Critical float64
	// CriticalOutput is the index of the output where Critical occurs.
	CriticalOutput int
	// CriticalPath lists the Net nodes of the worst path, input to
	// output.
	CriticalPath []logic.NodeID
}

// Analyze computes arrival times of the mapped block. Inverted block
// inputs start at the inverter delay; everything else starts at 0.
func Analyze(b *domino.Block, p Params) *Analysis {
	net := b.Net
	arr := make([]float64, net.NumNodes())
	from := make([]logic.NodeID, net.NumNodes())
	for i := range from {
		from[i] = logic.InvalidNode
	}
	for pos, id := range net.Inputs() {
		if b.Phase.Inputs[pos].Inverted {
			arr[id] = p.InverterDelay
		}
	}
	for i := 0; i < net.NumNodes(); i++ {
		id := logic.NodeID(i)
		node := net.Node(id)
		if len(node.Fanins) == 0 {
			continue
		}
		worst := 0.0
		worstFrom := logic.InvalidNode
		for _, f := range node.Fanins {
			if arr[f] >= worst {
				worst = arr[f]
				worstFrom = f
			}
		}
		var d float64
		if ci := b.CellOf[i]; ci >= 0 {
			d = CellDelay(&b.Cells[ci], p)
		}
		arr[i] = worst + d
		from[i] = worstFrom
	}
	a := &Analysis{Arrival: arr, CriticalOutput: -1}
	for oi, o := range net.Outputs() {
		t := arr[o.Driver]
		if b.Phase.Outputs[oi].Negated {
			t += p.InverterDelay
		}
		if t >= a.Critical {
			a.Critical = t
			a.CriticalOutput = oi
		}
	}
	if a.CriticalOutput >= 0 {
		// Backtrack the worst path.
		var path []logic.NodeID
		id := net.Outputs()[a.CriticalOutput].Driver
		for id != logic.InvalidNode {
			path = append(path, id)
			id = from[id]
		}
		for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
			path[l], path[r] = path[r], path[l]
		}
		a.CriticalPath = path
	}
	return a
}

// Resize upsizes cells on the critical path until the block meets the
// target delay or no further improvement is possible. Each step tries
// critical-path candidates in descending estimated gain-per-area order
// and keeps the first upsizing that actually reduces the critical delay
// (an upsizing can backfire by loading its own drivers, so every move is
// verified by re-analysis and reverted if it did not help). It mutates
// the block's cell sizes (hence loads, area and power) and returns the
// final analysis and the number of committed steps. A target that cannot
// be met returns an error alongside the best analysis achieved.
func Resize(b *domino.Block, p Params, target float64) (*Analysis, int, error) {
	steps := 0
	const maxSteps = 100000
	a := Analyze(b, p)
	for a.Critical > target {
		if steps >= maxSteps {
			return a, steps, fmt.Errorf("timing: resize exceeded %d steps", maxSteps)
		}
		if !improveOnce(b, p, &a) {
			return a, steps, fmt.Errorf("timing: cannot meet target %.3f (best %.3f)", target, a.Critical)
		}
		steps++
	}
	return a, steps, nil
}

// Tighten resizes for maximum speed: it keeps committing improving moves
// until none exists, returning the best analysis achieved and the number
// of steps. It is how the Table 2 flow derives a realistic, feasible
// clock target.
func Tighten(b *domino.Block, p Params) (*Analysis, int) {
	steps := 0
	a := Analyze(b, p)
	for improveOnce(b, p, &a) {
		steps++
	}
	return a, steps
}

// improveOnce tries to strictly reduce the critical delay by one
// verified upsizing move. On success it updates *a and returns true.
func improveOnce(b *domino.Block, p Params, a **Analysis) bool {
	type cand struct {
		ci   int
		gain float64
	}
	var cands []cand
	for _, node := range (*a).CriticalPath {
		ci := b.CellOf[node]
		if ci < 0 {
			continue
		}
		cell := &b.Cells[ci]
		if cell.Size*p.SizeStep > p.MaxSize {
			continue
		}
		before := CellDelay(cell, p)
		after := p.Intrinsic + p.LoadDelay*cell.Load/(cell.Size*p.SizeStep)
		if cell.Kind == logic.KindAnd {
			after += p.SeriesDelay * float64(cell.Width-1)
		}
		cost := cell.Area * cell.Size * (p.SizeStep - 1)
		if cost <= 0 {
			continue
		}
		cands = append(cands, cand{ci, (before - after) / cost})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	for _, c := range cands {
		old := b.Cells[c.ci].Size
		b.Cells[c.ci].Size *= p.SizeStep
		b.RecomputeLoads()
		na := Analyze(b, p)
		if na.Critical < (*a).Critical-1e-12 {
			*a = na
			return true
		}
		b.Cells[c.ci].Size = old
		b.RecomputeLoads()
	}
	return false
}

// TargetFromBaseline derives a clock target the way the Table 2 flow
// does: a slack factor applied to a baseline critical delay (e.g. the
// minimum-area synthesis at minimum sizes).
func TargetFromBaseline(baseline float64, slackFactor float64) float64 {
	return baseline * slackFactor
}
