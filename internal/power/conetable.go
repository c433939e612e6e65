// Cone-cached phase scoring.
//
// The exhaustive and greedy phase searches used to rebuild the block —
// Apply, technology mapping, and a full probability pass — for every one
// of the 2^k candidate assignments, although each output cone's logic and
// probabilities depend only on that output's own phase bit. The ConeTable
// precomputes both phases of every cone once and reduces scoring an
// assignment to summing a few signature-gated cached constants.
//
// Construction ("2k cone syntheses in one pass"): the original network is
// cloned with every primary output listed twice, and phase.Apply runs
// once with the first copies positive and the second copies negative.
// Because Apply memoizes block nodes per (original node, polarity), the
// resulting "union block" contains exactly one node for every
// (node, polarity) any cone can ever demand, and the block any mask
// produces is precisely the union block's subgraph induced by its
// outputs' cones — domino.Map's width legalization splits each gate from
// its own fanin list only, so the correspondence survives mapping. One
// probability pass over the mapped union block (the same engines Estimate
// uses; every engine is a pure function of a node's fanin cone) then
// prices every cell of every cone in both phases.
//
// Folding: every term of Estimate's Σ S·C·(1+P) + boundary-inverter sum
// is gated by the presence of exactly one union-block element —
//
//	cell self load (wire)          gated by the cell,
//	pin load c→f (one input cap)   gated by the consumer c (whose
//	                               presence implies its fanin f's),
//	output cap and output-inverter gated by (output, phase) selection,
//	inverted-rail wire load        gated by the rail
//
// — and an element is present iff any cone demanding it is selected: a
// pure OR over phase bits, encoded as a (positive, negated) bitmask pair
// over the k outputs. Terms with the same signature are pre-summed, so
//
//	score(mask) = Σ_g  K_g · [ (~mask ∧ pos_g) ∨ (mask ∧ neg_g) ≠ 0 ]
//
// — a handful of word ops per distinct demand signature, with zero
// allocations and zero branching on the block structure. Private cones
// degenerate to one signature per (output, phase) — the paper's pairwise
// cost-function decomposition — while shared logic just contributes
// signatures with more than one demanding cone. The score equals
// Estimate's Report.Total on the Apply'd block up to float summation
// order, and because the active constants are folded through an exact
// accumulator (see exactsum.go) the rounded score is an
// order-independent, bit-identical pure function of the assignment for
// any worker count — and equal, bit-for-bit, to what the incremental
// ScoreState reaches by any flip path (see scorestate.go).
package power

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/prob"
)

// ConeTable is the precomputed signature-gated constant table scoring
// phase assignments without synthesis. Build it once per (network,
// library, input probabilities, engine options) and hand it to
// SearchOptions.Scorer / PowerOptions.Scorer.
// It implements phase.StateScorer and phase.BoundScorer: NewState mints
// the O(Δ)-per-flip incremental scorer behind the search strategies,
// NewBound the admissible prefix bound behind exact branch-and-bound.
//
// The table is immutable after construction; ScoreAssignment on the
// table itself uses one embedded scratch buffer and is for sequential
// callers — concurrent searches Fork (cheap: one small buffer).
type ConeTable struct {
	k     int
	words int // ceil(k/64), ≥ 1

	// Signature groups in first-insertion (canonical) order; pos/neg are
	// flattened at stride words. Group g is active under a mask iff some
	// demanding cone is selected: (~mask & pos_g) | (mask & neg_g) ≠ 0.
	pos []uint64
	neg []uint64
	gk  []float64
	// gl/gp are each constant's precomposed exact-accumulator pieces
	// (decomposePieces of gk[g], 3 per group), so neither full rescores
	// nor incremental flips decompose floats on the scoring hot path.
	gl []int32
	gp []int64

	exact    bool
	numCells int
	self     *coneScorer

	// idx is the per-bit group index behind NewState/NewBound, built
	// lazily once and shared immutably by every state.
	idxOnce sync.Once
	idx     *flipIndex
}

// NewConeTable precomputes the cone table for a phase-ready network (no
// XORs; see phase.Apply) under the given library, original-input
// probabilities, and probability-engine options. All engines Estimate
// supports are valid here — Exact/Auto, Approximate, and LimitedDepth are
// all pure functions of a node's fanin cone, so per-node values computed
// on the union block equal those of any per-mask block.
func NewConeTable(n *logic.Network, lib domino.Library, inputProbs []float64, opts Options) (*ConeTable, error) {
	if len(inputProbs) != n.NumInputs() {
		return nil, fmt.Errorf("power: %d input probs for %d inputs", len(inputProbs), n.NumInputs())
	}
	k := n.NumOutputs()
	words := (k + 63) / 64
	if words == 0 {
		words = 1
	}

	// Union network: every output twice, second copies to be negated.
	union := n.Clone()
	for _, o := range n.Outputs() {
		name := o.Name + "__coneneg"
		for union.OutputByName(name) >= 0 {
			name += "_"
		}
		union.MarkOutput(name, o.Driver)
	}
	asg := make(phase.Assignment, 2*k)
	for j := k; j < 2*k; j++ {
		asg[j] = true
	}
	res, err := phase.Apply(union, asg)
	if err != nil {
		return nil, fmt.Errorf("power: cone table union synthesis: %w", err)
	}
	blk, err := domino.Map(res, lib)
	if err != nil {
		return nil, fmt.Errorf("power: cone table union mapping: %w", err)
	}
	net := blk.Net

	nodeProbs, exact, err := blockNodeProbs(nil, blk, inputProbs, opts)
	if err != nil {
		return nil, err
	}

	t := &ConeTable{
		k:        k,
		words:    words,
		exact:    exact,
		numCells: len(blk.Cells),
	}

	// Per-node demand signatures over the union block: sig[node] has bit
	// i of the pos (neg) half set iff output i's positive (negated) cone
	// demands the node. Union output j < k is output j positive, j ≥ k
	// is output j−k negated.
	sigPos := make([]uint64, net.NumNodes()*words)
	sigNeg := make([]uint64, net.NumNodes()*words)
	for j, o := range net.Outputs() {
		i, sig := j, sigPos
		if j >= k {
			i, sig = j-k, sigNeg
		}
		w, bit := i>>6, uint64(1)<<uint(i&63)
		cone := net.FaninCone(o.Driver)
		for node, in := range cone {
			if in {
				sig[node*words+w] |= bit
			}
		}
	}

	// Switching prices per node: cells carry S·(1+P); inverted input
	// rails carry their static inverter switching.
	sw := make([]float64, net.NumNodes())     // S·(1+P) for cells
	railSw := make([]float64, net.NumNodes()) // inverter switching for inverted rails
	isCell := make([]bool, net.NumNodes())
	isRail := make([]bool, net.NumNodes())
	for ci := range blk.Cells {
		cell := &blk.Cells[ci]
		sw[cell.Node] = prob.DominoSwitching(nodeProbs[cell.Node]) * (1 + cell.Penalty)
		isCell[cell.Node] = true
	}
	for pos, id := range net.Inputs() {
		bi := blk.Phase.Inputs[pos]
		if !bi.Inverted {
			continue
		}
		railSw[id] = prob.BoundaryInputInverterSwitching(inputProbs[bi.InputPos])
		isRail[id] = true
	}

	// Fold every cost term into its gating signature, in canonical
	// order. groupIndex interns signatures; gk accumulates.
	groupIndex := make(map[string]int)
	keyBuf := make([]byte, 2*words*8)
	addTerm := func(sp, sn []uint64, v float64) {
		if v == 0 {
			return
		}
		for w := 0; w < words; w++ {
			binary.LittleEndian.PutUint64(keyBuf[w*8:], sp[w])
			binary.LittleEndian.PutUint64(keyBuf[(words+w)*8:], sn[w])
		}
		if g, ok := groupIndex[string(keyBuf)]; ok {
			t.gk[g] += v
			return
		}
		groupIndex[string(keyBuf)] = len(t.gk)
		t.pos = append(t.pos, sp...)
		t.neg = append(t.neg, sn...)
		t.gk = append(t.gk, v)
	}
	nodeSig := func(node logic.NodeID) ([]uint64, []uint64) {
		return sigPos[int(node)*words : (int(node)+1)*words], sigNeg[int(node)*words : (int(node)+1)*words]
	}

	// 1. Wire loads, gated by the loaded element itself.
	if lib.WireCap != 0 {
		for i := 0; i < net.NumNodes(); i++ {
			id := logic.NodeID(i)
			sp, sn := nodeSig(id)
			if isCell[i] {
				addTerm(sp, sn, sw[i]*lib.WireCap)
			} else if isRail[i] {
				addTerm(sp, sn, railSw[i]*lib.WireCap)
			}
		}
	}
	// 2. Pin loads: consumer c's pins price its fanins, gated by c
	// (c present ⇒ every fanin of c present).
	for ci := range blk.Cells {
		c := blk.Cells[ci].Node
		sp, sn := nodeSig(c)
		for _, f := range net.Fanins(c) {
			if isCell[f] {
				addTerm(sp, sn, sw[f]*lib.InputCap)
			} else if isRail[f] {
				addTerm(sp, sn, railSw[f]*lib.InputCap)
			}
		}
	}
	// 3. Boundary terms, gated by the (output, phase) singleton — which
	// is exactly the selected cone's signature restricted to itself.
	single := make([]uint64, words)
	zero := make([]uint64, words)
	for j, o := range net.Outputs() {
		i := j
		neg := false
		if j >= k {
			i, neg = j-k, true
		}
		for w := range single {
			single[w] = 0
		}
		single[i>>6] = uint64(1) << uint(i&63)
		sp, sn := single, zero
		if neg {
			sp, sn = zero, single
		}
		d := o.Driver
		if isCell[d] {
			addTerm(sp, sn, sw[d]*lib.OutputCap)
		} else if isRail[d] {
			addTerm(sp, sn, railSw[d]*lib.OutputCap)
		}
		if neg {
			addTerm(sp, sn, prob.BoundaryOutputInverterSwitching(nodeProbs[d])*lib.OutputCap)
		}
	}

	t.gl = make([]int32, len(t.gk))
	t.gp = make([]int64, 3*len(t.gk))
	for g, v := range t.gk {
		if v == 0 {
			continue // interning never stores zero constants
		}
		l, p0, p1, p2 := decomposePieces(v)
		t.gl[g] = int32(l)
		t.gp[3*g], t.gp[3*g+1], t.gp[3*g+2] = p0, p1, p2
	}

	t.self = newConeScorer(t)
	return t, nil
}

// addGroup folds +K_g into the accumulator from the precomposed pieces.
func (t *ConeTable) addGroup(acc *exactAcc, g int32) {
	p := t.gp[3*g:]
	acc.addPieces(int(t.gl[g]), p[0], p[1], p[2])
}

// subGroup folds −K_g into the accumulator.
func (t *ConeTable) subGroup(acc *exactAcc, g int32) {
	p := t.gp[3*g:]
	acc.addPieces(int(t.gl[g]), -p[0], -p[1], -p[2])
}

// Exact reports whether the cached probabilities came from the exact
// (BDD) engine — mirrors Report.ExactProbs.
func (t *ConeTable) Exact() bool { return t.exact }

// Outputs returns the number of primary outputs (phase bits) scored.
func (t *ConeTable) Outputs() int { return t.k }

// MappedCells returns the number of domino cells in the mapped union
// block — the synthesis footprint the table was priced from (≈ 2× one
// block's).
func (t *ConeTable) MappedCells() int { return t.numCells }

// Groups returns the number of distinct demand signatures — the per-mask
// arithmetic is O(Groups + k). Private cones yield ≤ 2k groups; sharing
// adds one group per distinct subset of cones demanding common logic.
func (t *ConeTable) Groups() int { return len(t.gk) }

// ScoreAssignment scores one phase assignment against the cached cones.
// It uses the table's embedded scratch and is therefore for sequential
// use; concurrent searches must Fork.
func (t *ConeTable) ScoreAssignment(asg phase.Assignment) (float64, error) {
	return t.self.ScoreAssignment(asg)
}

// Fork returns an independent scorer over the shared immutable table.
// Fork is safe to call concurrently (phase.AssignmentScorer contract).
func (t *ConeTable) Fork() phase.AssignmentScorer { return newConeScorer(t) }

// coneScorer carries one scoring stream's mask buffer and exact
// accumulator. ScoreAssignment never allocates.
type coneScorer struct {
	t       *ConeTable
	maskBuf []uint64
	acc     *exactAcc
}

func newConeScorer(t *ConeTable) *coneScorer {
	return &coneScorer{t: t, maskBuf: make([]uint64, t.words), acc: newExactAcc()}
}

// Fork lets a forked scorer be forked again (it only needs the table).
func (s *coneScorer) Fork() phase.AssignmentScorer { return newConeScorer(s.t) }

// NewState and NewBound delegate to the shared table, so a forked
// scorer still advertises the incremental fast paths
// (phase.StateScorer / phase.BoundScorer).
func (s *coneScorer) NewState() phase.ScoreState { return s.t.NewState() }

// NewBound implements phase.BoundScorer on forked scorers.
func (s *coneScorer) NewBound() phase.PrefixBound { return s.t.NewBound() }

// ScoreAssignment folds the signature-gated constants under the
// assignment's phase mask into an exact accumulator and returns the
// correctly rounded sum. Exact summation makes the score independent of
// fold order, so it is a bit-identical pure function of the assignment —
// shared with the incremental ScoreState, whose flip paths add and
// remove the very same constants — which is the property that keeps
// every sharded search deterministic at any worker count.
func (s *coneScorer) ScoreAssignment(asg phase.Assignment) (float64, error) {
	t := s.t
	if len(asg) != t.k {
		return 0, fmt.Errorf("power: assignment for %d outputs, cone table has %d", len(asg), t.k)
	}
	for w := range s.maskBuf {
		s.maskBuf[w] = 0
	}
	for i, neg := range asg {
		if neg {
			s.maskBuf[i>>6] |= uint64(1) << uint(i&63)
		}
	}
	s.acc.Reset()
	if t.words == 1 {
		m := s.maskBuf[0]
		pos, neg := t.pos, t.neg
		for g := range t.gk {
			if (^m&pos[g])|(m&neg[g]) != 0 {
				t.addGroup(s.acc, int32(g))
			}
		}
		return s.acc.Round(), nil
	}
	W := t.words
	for g := range t.gk {
		base := g * W
		for w := 0; w < W; w++ {
			if (^s.maskBuf[w]&t.pos[base+w])|(s.maskBuf[w]&t.neg[base+w]) != 0 {
				t.addGroup(s.acc, int32(g))
				break
			}
		}
	}
	return s.acc.Round(), nil
}
