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
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/budget"
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
	// Budget is the row's cancellation token (nil = never cancelled):
	// Tighten and Resize poll it before every trial upsizing. The flow
	// sets it on its own copy of the configured params, overriding any
	// caller-set token. Excluded from JSON, like power.Options.Budget,
	// so it never reaches a configuration's wire form or cache key.
	Budget *budget.T `json:"-"`
}

// Bounds on an untrusted delay model, which flow.Config.Validate applies.
const (
	// MaxSizeLimit is the largest MaxSize a configuration may set: a
	// resized cell's area stays within 2^10 times its minimum-size area,
	// far inside the integers a float64 holds exactly, so the rounded
	// sized area of a block is exact.
	MaxSizeLimit = 1 << 10
	// MaxUpsizings caps the upsizings one cell can take from size 1 to
	// MaxSize, ⌊ln MaxSize / ln SizeStep⌋. Every Tighten or Resize step
	// upsizes one cell, so a resize takes at most cells × MaxUpsizings
	// steps. The default model allows 8.
	MaxUpsizings = 64
)

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
	a, _ := analyze(b, p)
	return a
}

// analyze is Analyze that also returns every node's worst fanin (the
// links the critical path is backtracked along).
func analyze(b *domino.Block, p Params) (*Analysis, []logic.NodeID) {
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
	for i := range arr {
		if len(net.Fanins(logic.NodeID(i))) > 0 {
			arr[i], from[i] = arrival(b, p, arr, i)
		}
	}
	a := &Analysis{Arrival: arr}
	a.Critical, a.CriticalOutput = critical(b, p, arr)
	a.CriticalPath = criticalPath(b, a.CriticalOutput, from)
	return a, from
}

// arrival times gate node i from its fanins' arrivals: the latest fanin
// (ties go to the last one, which it also returns) plus the node's cell
// delay.
func arrival(b *domino.Block, p Params, arr []float64, i int) (float64, logic.NodeID) {
	worst := 0.0
	worstFrom := logic.InvalidNode
	for _, f := range b.Net.Fanins(logic.NodeID(i)) {
		if arr[f] >= worst {
			worst = arr[f]
			worstFrom = f
		}
	}
	var d float64
	if ci := b.CellOf[i]; ci >= 0 {
		d = CellDelay(&b.Cells[ci], p)
	}
	return worst + d, worstFrom
}

// critical returns the worst output arrival, counting output inverters,
// and the index of its output (ties go to the last output; -1 when the
// block has no outputs).
func critical(b *domino.Block, p Params, arr []float64) (float64, int) {
	worst, at := 0.0, -1
	for oi, o := range b.Net.Outputs() {
		t := arr[o.Driver]
		if b.Phase.Outputs[oi].Negated {
			t += p.InverterDelay
		}
		if t >= worst {
			worst, at = t, oi
		}
	}
	return worst, at
}

// criticalPath backtracks the worst-fanin links from output out's
// driver and returns the path input to output (nil for out -1).
func criticalPath(b *domino.Block, out int, from []logic.NodeID) []logic.NodeID {
	if out < 0 {
		return nil
	}
	var path []logic.NodeID
	for id := b.Net.Outputs()[out].Driver; id != logic.InvalidNode; id = from[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	return path
}

// Resize upsizes cells on the critical path until the block meets the
// target delay or no further improvement is possible. Each step tries
// critical-path candidates in descending estimated gain-per-area order
// and keeps the first upsizing that actually reduces the critical delay
// (an upsizing can backfire by loading its own drivers, so every move is
// verified by re-timing and reverted if it did not help). It mutates
// the block's cell sizes (hence loads, area and power) and returns the
// final analysis and the number of committed steps. A target that cannot
// be met returns an error alongside the best analysis achieved, and so
// does a cancelled p.Budget: the token's error, polled before every
// trial. The block's loads must be current, as Map and every sizing
// call leave them.
func Resize(b *domino.Block, p Params, target float64) (*Analysis, int, error) {
	s := newSizer(b, p)
	steps := 0
	const maxSteps = 100000
	for s.a.Critical > target {
		if steps >= maxSteps {
			return s.a, steps, fmt.Errorf("timing: resize exceeded %d steps", maxSteps)
		}
		ok, err := s.improve()
		if err != nil {
			return s.a, steps, err
		}
		if !ok {
			return s.a, steps, fmt.Errorf("timing: cannot meet target %.3f (best %.3f)", target, s.a.Critical)
		}
		steps++
	}
	return s.a, steps, nil
}

// Tighten resizes for maximum speed: it keeps committing improving moves
// until none exists, returning the best analysis achieved and the number
// of steps. It is how the Table 2 flow derives a realistic, feasible
// clock target. A cancelled p.Budget stops it early at the best
// analysis so far; the caller reads the token's error.
func Tighten(b *domino.Block, p Params) (*Analysis, int) {
	s := newSizer(b, p)
	steps := 0
	for {
		if ok, err := s.improve(); !ok || err != nil {
			return s.a, steps
		}
		steps++
	}
}

// sizer resizes one block incrementally. It keeps the cell loads, the
// arrival times and the worst-fanin links current across trial
// upsizings: a trial re-sums only the upsized cell's drivers' loads and
// re-times only the nodes whose inputs changed, and an undo log takes a
// rejected trial back. Each value is evaluated as Block.NodeLoads and
// Analyze evaluate it, so after any run of moves the sizer's state
// equals a full recompute bit for bit.
type sizer struct {
	b   *domino.Block
	p   Params
	lib domino.Library
	// a is the analysis of the current sizing; a.Arrival is arr.
	a    *Analysis
	arr  []float64
	from []logic.NodeID
	// fanout[i] lists node i's consumers, one entry per consuming pin,
	// in ascending consumer id; outputs[i] counts the primary outputs
	// node i drives.
	fanout  [][]logic.NodeID
	outputs []int32
	// dirty marks the nodes a trial must re-time; lo is the lowest word
	// that may hold a mark.
	dirty []uint64
	lo    int
	cands []cand
	// The pending trial's undo logs, applied in reverse.
	loadLog []loadEntry
	arrLog  []arrEntry
}

type cand struct {
	ci   int
	gain float64
}

type loadEntry struct {
	ci   int
	load float64
}

type arrEntry struct {
	node int
	arr  float64
	from logic.NodeID
}

func newSizer(b *domino.Block, p Params) *sizer {
	a, from := analyze(b, p)
	n := b.Net.NumNodes()
	s := &sizer{
		b: b, p: p, lib: b.Library(), a: a, arr: a.Arrival, from: from,
		fanout:  b.Net.FanoutLists(),
		outputs: make([]int32, n),
		dirty:   make([]uint64, (n+63)/64),
	}
	s.lo = len(s.dirty)
	for _, o := range b.Net.Outputs() {
		s.outputs[o.Driver]++
	}
	return s
}

// improve is one resizing step: it tries the critical path's upsizable
// cells in descending estimated gain per added area and keeps the first
// upsizing that strictly reduces the critical delay. It reports whether
// one did, or the budget token's error, polled before every trial.
func (s *sizer) improve() (bool, error) {
	p := s.p
	s.cands = s.cands[:0]
	for _, node := range s.a.CriticalPath {
		ci := s.b.CellOf[node]
		if ci < 0 {
			continue
		}
		cell := &s.b.Cells[ci]
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
		s.cands = append(s.cands, cand{ci, (before - after) / cost})
	}
	sort.Slice(s.cands, func(i, j int) bool { return s.cands[i].gain > s.cands[j].gain })
	for _, c := range s.cands {
		if err := p.Budget.Err(); err != nil {
			return false, err
		}
		if s.try(c.ci) {
			return true, nil
		}
	}
	return false, nil
}

// try upsizes cell ci by one step: it re-sums the loads of the cell's
// drivers, re-times the cell, those drivers and whatever their arrival
// changes reach, and rescans the outputs. A move that cuts the critical
// delay by more than 1e-12 is kept (and the critical path backtracked);
// any other is undone.
func (s *sizer) try(ci int) bool {
	cell := &s.b.Cells[ci]
	old := cell.Size
	cell.Size *= s.p.SizeStep
	for _, f := range s.b.Net.Fanins(cell.Node) {
		s.reload(f)
	}
	s.mark(cell.Node)
	s.retime()
	crit, out := critical(s.b, s.p, s.arr)
	kept := crit < s.a.Critical-1e-12
	if kept {
		s.a = &Analysis{Arrival: s.arr, Critical: crit, CriticalOutput: out, CriticalPath: criticalPath(s.b, out, s.from)}
	} else {
		for i := len(s.arrLog) - 1; i >= 0; i-- {
			e := s.arrLog[i]
			s.arr[e.node], s.from[e.node] = e.arr, e.from
		}
		for i := len(s.loadLog) - 1; i >= 0; i-- {
			e := s.loadLog[i]
			s.b.Cells[e.ci].Load = e.load
		}
		cell.Size = old
	}
	s.loadLog, s.arrLog = s.loadLog[:0], s.arrLog[:0]
	return kept
}

// reload re-sums driver f's load in Block.NodeLoads' order — WireCap,
// one InputCap × consumer size per consuming pin in ascending consumer
// id, then OutputCap per output f drives — and marks f for re-timing.
// Nodes without a cell (block inputs) carry no load the delay model
// reads.
func (s *sizer) reload(f logic.NodeID) {
	ci := s.b.CellOf[f]
	if ci < 0 {
		return
	}
	load := s.lib.WireCap
	for _, c := range s.fanout[f] {
		size := 1.0
		if cc := s.b.CellOf[c]; cc >= 0 {
			size = s.b.Cells[cc].Size
		}
		load += s.lib.InputCap * size
	}
	for k := int32(0); k < s.outputs[f]; k++ {
		load += s.lib.OutputCap
	}
	s.loadLog = append(s.loadLog, loadEntry{ci, s.b.Cells[ci].Load})
	s.b.Cells[ci].Load = load
	s.mark(f)
}

func (s *sizer) mark(id logic.NodeID) {
	w := int(id) >> 6
	s.dirty[w] |= 1 << (uint(id) & 63)
	if w < s.lo {
		s.lo = w
	}
}

// retime re-times the marked nodes in ascending id — Analyze's order,
// since ids are topological and a node only marks its consumers, which
// come later. A node whose arrival bits do not change marks nothing:
// its consumers read only its arrival.
func (s *sizer) retime() {
	for w := s.lo; w < len(s.dirty); w++ {
		for s.dirty[w] != 0 {
			i := w<<6 | bits.TrailingZeros64(s.dirty[w])
			s.dirty[w] &= s.dirty[w] - 1
			arr, from := arrival(s.b, s.p, s.arr, i)
			moved := math.Float64bits(arr) != math.Float64bits(s.arr[i])
			if !moved && from == s.from[i] {
				continue
			}
			s.arrLog = append(s.arrLog, arrEntry{i, s.arr[i], s.from[i]})
			s.arr[i], s.from[i] = arr, from
			if moved {
				for _, c := range s.fanout[i] {
					s.mark(c)
				}
			}
		}
	}
	s.lo = len(s.dirty)
}

// TargetFromBaseline derives a clock target the way the Table 2 flow
// does: a slack factor applied to a baseline critical delay (e.g. the
// minimum-area synthesis at minimum sizes).
func TargetFromBaseline(baseline float64, slackFactor float64) float64 {
	return baseline * slackFactor
}
