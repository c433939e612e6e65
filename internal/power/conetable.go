// Cone-cached phase scoring.
//
// The exhaustive and greedy phase searches used to rebuild the block —
// Apply, technology mapping, and a full probability pass — for every one
// of the 2^k candidate assignments, although each output cone's logic and
// probabilities depend only on that output's own phase bit. The ConeTable
// precomputes both phases of every cone once and reduces scoring an
// assignment to summing a few signature-gated cached constants.
//
// Construction ("2k cone syntheses in one pass"): phase.ApplyUnion lists
// every primary output twice and runs phase.Apply once, with the first
// copies positive and the second copies negative.
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
// The table is immutable after construction, and ScoreAssignment keeps
// its scratch per call, so every method is safe for concurrent use.
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

	exact bool

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
	b, err := newTableBuilder(n, lib)
	if err != nil {
		return nil, fmt.Errorf("power: cone table: %w", err)
	}
	blk, net, k := b.blk, b.blk.Net, b.t.k
	nodeProbs, exact, err := blockNodeProbs(blk, inputProbs, opts)
	if err != nil {
		return nil, err
	}
	b.t.exact = exact

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

	// Fold every cost term into its gating signature, in canonical order.
	// 1. Wire loads, gated by the loaded element itself.
	if lib.WireCap != 0 {
		for i := 0; i < net.NumNodes(); i++ {
			if isCell[i] {
				b.add(b.sig(logic.NodeID(i)), sw[i]*lib.WireCap)
			} else if isRail[i] {
				b.add(b.sig(logic.NodeID(i)), railSw[i]*lib.WireCap)
			}
		}
	}
	// 2. Pin loads: consumer c's pins price its fanins, gated by c
	// (c present ⇒ every fanin of c present).
	for ci := range blk.Cells {
		c := blk.Cells[ci].Node
		for _, f := range net.Fanins(c) {
			if isCell[f] {
				b.add(b.sig(c), sw[f]*lib.InputCap)
			} else if isRail[f] {
				b.add(b.sig(c), railSw[f]*lib.InputCap)
			}
		}
	}
	// 3. Boundary terms, gated by the (output, phase) singleton — which
	// is exactly the selected cone's signature restricted to itself.
	for j, o := range net.Outputs() {
		d := o.Driver
		if isCell[d] {
			b.add(b.outputSig(j), sw[d]*lib.OutputCap)
		} else if isRail[d] {
			b.add(b.outputSig(j), railSw[d]*lib.OutputCap)
		}
		if j >= k {
			b.add(b.outputSig(j), prob.BoundaryOutputInverterSwitching(nodeProbs[d])*lib.OutputCap)
		}
	}
	return b.finish(), nil
}

// NewAreaTable precomputes the cone table of the minimum-area objective:
// its score of an assignment is exactly the mapped block's cell count,
// domino.Map(phase.Apply(n, asg), lib).CellCount(). Its unit terms are
// gated like the power terms: +1 per mapped cell and per inverted input
// rail by the element's signature, +1 per negated output by its
// singleton. It builds no BDDs, and it returns Apply's and Map's errors
// as they are, as a synthesis of each candidate would.
func NewAreaTable(n *logic.Network, lib domino.Library) (*ConeTable, error) {
	b, err := newTableBuilder(n, lib)
	if err != nil {
		return nil, err
	}
	for ci := range b.blk.Cells {
		b.add(b.sig(b.blk.Cells[ci].Node), 1)
	}
	for pos, id := range b.blk.Net.Inputs() {
		if b.blk.Phase.Inputs[pos].Inverted {
			b.add(b.sig(id), 1)
		}
	}
	for j := b.t.k; j < 2*b.t.k; j++ {
		b.add(b.outputSig(j), 1)
	}
	return b.finish(), nil
}

// tableBuilder is the construction every term set shares: the mapped
// union block (union output j < k is output j positive, j ≥ k output
// j−k negated), each node's demand signature — 2·words words, bit i of
// the first (second) half set iff output i's positive (negated) cone
// demands the node — and the interning of signature-gated terms.
type tableBuilder struct {
	t      *ConeTable
	blk    *domino.Block
	sigs   []uint64
	groups map[string]int
	key    []byte
	single []uint64
}

// newTableBuilder synthesizes and maps the union block
// (phase.ApplyUnion) and derives every node's demand signature.
func newTableBuilder(n *logic.Network, lib domino.Library) (*tableBuilder, error) {
	k := n.NumOutputs()
	words := max((k+63)/64, 1)
	res, err := phase.ApplyUnion(n)
	if err != nil {
		return nil, err
	}
	blk, err := domino.Map(res, lib)
	if err != nil {
		return nil, err
	}
	net := blk.Net
	b := &tableBuilder{t: &ConeTable{k: k, words: words}, blk: blk, groups: make(map[string]int),
		sigs: make([]uint64, 2*words*net.NumNodes()), key: make([]byte, 16*words), single: make([]uint64, 2*words)}
	// Seed each union output's driver with its own bit, then OR every
	// node's signature into its fanins in one descending sweep (ids are
	// topological), as logic.OutputCones does.
	for j, o := range net.Outputs() {
		orInto(b.sig(o.Driver), b.outputSig(j))
	}
	for id := net.NumNodes() - 1; id >= 0; id-- {
		for _, f := range net.Fanins(logic.NodeID(id)) {
			orInto(b.sig(f), b.sig(logic.NodeID(id)))
		}
	}
	return b, nil
}

// orInto sets every bit of src in dst.
func orInto(dst, src []uint64) {
	for w, v := range src {
		dst[w] |= v
	}
}

// sig returns a union-block node's demand signature.
func (b *tableBuilder) sig(id logic.NodeID) []uint64 {
	n := 2 * b.t.words
	return b.sigs[int(id)*n : (int(id)+1)*n]
}

// outputSig returns union output j's (output, phase) singleton signature,
// valid until the next call.
func (b *tableBuilder) outputSig(j int) []uint64 {
	clear(b.single)
	i := j % b.t.k
	b.single[j/b.t.k*b.t.words+(i>>6)] = 1 << uint(i&63)
	return b.single
}

// add folds the term v into the group of signature s, interning
// signatures in first-insertion (canonical) order.
func (b *tableBuilder) add(s []uint64, v float64) {
	if v == 0 {
		return
	}
	for w, x := range s {
		binary.LittleEndian.PutUint64(b.key[8*w:], x)
	}
	t := b.t
	if g, ok := b.groups[string(b.key)]; ok {
		t.gk[g] += v
		return
	}
	b.groups[string(b.key)] = len(t.gk)
	t.pos = append(t.pos, s[:t.words]...)
	t.neg = append(t.neg, s[t.words:]...)
	t.gk = append(t.gk, v)
}

// finish precomposes every constant's exact-accumulator pieces.
func (b *tableBuilder) finish() *ConeTable {
	t := b.t
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
	return t
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

// Groups returns the number of distinct demand signatures — the per-mask
// arithmetic is O(Groups + k). Private cones yield ≤ 2k groups; sharing
// adds one group per distinct subset of cones demanding common logic.
func (t *ConeTable) Groups() int { return len(t.gk) }

// ScoreAssignment folds the signature-gated constants under the
// assignment's phase mask into an exact accumulator and returns the
// correctly rounded sum. Exact summation makes the score independent of
// fold order, so it is a bit-identical pure function of the assignment —
// shared with the incremental ScoreState, whose flip paths add and
// remove the very same constants — which is the property that keeps
// every sharded search deterministic at any worker count.
func (t *ConeTable) ScoreAssignment(asg phase.Assignment) (float64, error) {
	if len(asg) != t.k {
		return 0, fmt.Errorf("power: assignment for %d outputs, cone table has %d", len(asg), t.k)
	}
	// Per-call scratch: the accumulator lives on the stack, and so does
	// the mask of a table of at most 256 outputs.
	var small [4]uint64
	mask := small[:min(t.words, len(small))]
	if t.words > len(small) {
		mask = make([]uint64, t.words)
	}
	for i, neg := range asg {
		if neg {
			mask[i>>6] |= uint64(1) << uint(i&63)
		}
	}
	acc := exactAcc{lo: accLimbs, hi: -1}
	if t.words == 1 {
		m := mask[0]
		pos, neg := t.pos, t.neg
		for g := range t.gk {
			if (^m&pos[g])|(m&neg[g]) != 0 {
				t.addGroup(&acc, int32(g))
			}
		}
		return acc.Round(), nil
	}
	W := t.words
	for g := range t.gk {
		base := g * W
		for w := 0; w < W; w++ {
			if (^mask[w]&t.pos[base+w])|(mask[w]&t.neg[base+w]) != 0 {
				t.addGroup(&acc, int32(g))
				break
			}
		}
	}
	return acc.Round(), nil
}
