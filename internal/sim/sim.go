// Package sim is the measurement back-end of the reproduction: a
// Monte-Carlo gate-level power simulator standing in for the EPIC
// PowerMill runs of the paper's Section 5.
//
// The paper measures power by simulating statistically generated input
// vectors with the appropriate signal probabilities. We do the same:
// vectors are drawn as independent Bernoullis per primary input, each
// cycle is a precharge/evaluate pair, and transitions are counted with
// domino semantics — a domino cell transitions exactly when its output
// evaluates to 1 (Property 2.1) and never glitches (Property 2.2), so a
// zero-delay sweep per cycle is exact for the block. Boundary static
// inverters toggle on input value changes (input side) or together with
// their driving domino output (output side).
//
// The simulator only counts: every Report figure is an exact function
// of integer transition counts, weighted once by Run after the shards
// merge. One kernel produces those counts: the blocked kernel packs up
// to 512 cycles into a block of 8 uint64 words per net, counts
// transitions with popcounts, and skips gates whose inputs did not
// change between blocks (activity gating); one pass serves every block
// size and tail. It draws its Bernoulli inputs through packInputs
// (prob.BernoulliWord on a math/rand generator) one window at a time.
// The package tests keep a scalar kernel, which evaluates one []bool
// vector per cycle from the same draws, as its reference oracle: for
// every (Seed, Shards) both count the same transitions and produce
// byte-identical Reports.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/prob"
)

// Kernel is the wire form of the retired engine choice. Every value
// runs the blocked kernel, so Reports and wall-clock alike do not
// depend on it; it stays so that configurations carrying it still
// decode.
type Kernel uint8

const (
	// KernelAuto, the zero value, runs the blocked kernel.
	KernelAuto Kernel = iota
	// Values 1 and 2 are reserved: they selected the retired wide and
	// scalar kernels. Configurations carrying them run the blocked
	// kernel, with identical Reports.
	_
	_
	// KernelBlocked names the blocked kernel explicitly; it is the
	// largest valid value.
	KernelBlocked
)

// simWindow is the packing window: cycle base+k of a window lives in
// bit k of one uint64 per net, so it equals the uint64 lane count. The
// kernel draws its inputs one window at a time.
const simWindow = 64

// packInputs fills words[i] with one window's packed Bernoulli draws for
// every input: bit k of words[i] is input i's value in cycle k of the
// window. The kernel and its test oracle call exactly this, in the same
// window order, so they simulate the same vector sequence for a given
// seed.
func packInputs(rng *rand.Rand, probs []float64, words []uint64) {
	for i, p := range probs {
		words[i] = prob.BernoulliWord(rng, p)
	}
}

// DefaultVectors is the cycle count Run simulates when Config.Vectors
// is not positive.
const DefaultVectors = 4096

// MaxShards is the largest shard count flow.Config.Validate accepts from
// an untrusted configuration. Run keeps every shard's counts until the
// merge, so its memory grows linearly with Shards.
const MaxShards = 1024

// Config parameterizes a simulation run.
type Config struct {
	// Vectors is the number of evaluate cycles (default DefaultVectors).
	Vectors int
	// Seed drives the vector generator.
	Seed int64
	// InputProbs gives the Bernoulli probability of each original
	// primary input. Required.
	InputProbs []float64
	// Shards splits the vector budget into independent streams, each with
	// its own rng seeded Seed+shard. The report is a pure function of
	// (Vectors, Seed, Shards, InputProbs): shard sizes and the merge order
	// are fixed by shard index, so reruns are bit-identical. 0 or 1 means
	// a single shard. Each shard starts without input history, so its
	// first cycle counts no input-inverter toggles — different shard
	// counts are therefore distinct (equally valid) sample estimates.
	// Shards beyond Vectors are clamped so no shard ever simulates zero
	// vectors.
	//
	// Compatibility: PR 2 replaced the per-cycle Float64 draws with the
	// packed dyadic-expansion generator (see prob.BernoulliWord), so a given
	// (Seed, Shards) simulates a different — equally valid — vector
	// sequence than pre-PR-2 releases did. Absolute measured values are
	// therefore not comparable across that boundary; determinism within
	// a build is unaffected.
	Shards int
	// Workers bounds the goroutines simulating shards (0 = GOMAXPROCS,
	// 1 = sequential). Workers affects wall-clock only, never the report.
	Workers int
	// Kernel is kept for wire compatibility (see Kernel): every value
	// runs the blocked kernel.
	Kernel Kernel
	// BlockWords sets the blocked kernel's words-per-block (64 lanes
	// each): 0 means the default (8, i.e. 512 lanes), other values are
	// clamped to 1..MaxBlockWords. Like Workers it is a pure wall-clock
	// knob — Reports do not depend on it.
	BlockWords int
	// Stats, when non-nil, receives the blocked kernel's cumulative
	// activity-gating counters, summed over shards in index order. They
	// are deterministic for a fixed (Seed, Shards, BlockWords). Stats is
	// an out-parameter only; it never influences the Report.
	Stats *KernelStats
	// Budget is the cancellation/resource token the run honors: the
	// vector count is clamped to the token's sim vector budget before
	// sharding (a pure min, so the clamp is independent of Workers and
	// Shards), and the kernel polls the token for cancellation at its
	// context poll sites. Nil means unlimited.
	Budget *budget.T
}

// Report summarizes measured activity. Power figures are in switched-
// capacitance units per cycle (load-weighted transition counts divided by
// cycles), directly comparable to power.Estimate's model values.
type Report struct {
	Cycles int
	// Transition counts (unweighted).
	DominoTransitions    int64
	InputInvTransitions  int64
	OutputInvTransitions int64
	// Load- and penalty-weighted per-cycle power. These are exact
	// functions of the integer transition counts (count × weight).
	DominoPower    float64
	InputInvPower  float64
	OutputInvPower float64
	Total          float64
	// PerCellFreq is each domino cell's measured switching frequency
	// (transitions per cycle), parallel to Block.Cells.
	PerCellFreq []float64
}

// blockParams is the precomputed per-block layout every kernel reads
// (which positions and outputs carry boundary inverters) and the weights
// Run applies to the merged counts, so every float in the Report is
// derived from one set of weights.
type blockParams struct {
	// weights[ci] = Load·(1+Penalty) of cell ci.
	weights []float64
	// invPos lists the inverted block-input positions in ascending order;
	// invLoad[pos] is the boundary inverter load at that position.
	invPos  []int
	invLoad []float64
	// negOut lists the negated output indexes in ascending order;
	// drivers[i] is output i's driver node.
	negOut  []int
	drivers []logic.NodeID
	outCap  float64
}

func newBlockParams(b *domino.Block) *blockParams {
	net := b.Net
	loads := b.NodeLoads()
	inputNodeOf := net.Inputs()
	p := &blockParams{
		weights: make([]float64, len(b.Cells)),
		invLoad: make([]float64, len(b.Phase.Inputs)),
		drivers: make([]logic.NodeID, len(net.Outputs())),
		outCap:  b.Library().OutputCap,
	}
	for ci := range b.Cells {
		cell := &b.Cells[ci]
		p.weights[ci] = cell.Load * (1 + cell.Penalty)
	}
	for pos, bi := range b.Phase.Inputs {
		if bi.Inverted {
			p.invPos = append(p.invPos, pos)
			p.invLoad[pos] = loads[inputNodeOf[pos]]
		}
	}
	for i, o := range net.Outputs() {
		p.drivers[i] = o.Driver
	}
	for i, bo := range b.Phase.Outputs {
		if bo.Negated {
			p.negOut = append(p.negOut, i)
		}
	}
	return p
}

// shardResult accumulates one shard's raw (undivided) activity counts;
// Run merges shards in index order and weights once at the end.
type shardResult struct {
	cellTrans      []int64
	inputInvTrans  []int64 // per block-input position
	outputInvTrans []int64 // per output index
	// Activity-gating counters (blocked kernel only; see KernelStats).
	gateEvals int64
	gateSkips int64
}

func newShardResult(b *domino.Block) *shardResult {
	return &shardResult{
		cellTrans:      make([]int64, len(b.Cells)),
		inputInvTrans:  make([]int64, len(b.Phase.Inputs)),
		outputInvTrans: make([]int64, len(b.Phase.Outputs)),
	}
}

// shardKernel simulates one shard: `vectors` (≥ 1) cycles drawn from an
// rng seeded `seed`, counted into raw totals, polling ctx so a sibling
// shard's failure aborts early. p and pc are built once per run and
// shared read-only by every shard goroutine.
type shardKernel func(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, seed int64, vectors int) (*shardResult, error)

// Run simulates the mapped block for cfg.Vectors cycles and returns the
// measured activity. With cfg.Shards > 1 the vector budget is split into
// contiguous shards simulated concurrently on cfg.Workers goroutines;
// see Config for the determinism contract.
func Run(b *domino.Block, cfg Config) (*Report, error) {
	return run(b, cfg, runShardBlocked)
}

// run is Run over a given shard kernel: it sizes the shards, runs the
// kernel on each and merges and weights the counts. Run passes the
// blocked kernel; the package tests pass the scalar oracle through the
// same sharding and merge.
func run(b *domino.Block, cfg Config, kernel shardKernel) (*Report, error) {
	if len(cfg.InputProbs) != len(b.Phase.Original.Inputs()) {
		return nil, fmt.Errorf("sim: %d input probs for %d original inputs",
			len(cfg.InputProbs), len(b.Phase.Original.Inputs()))
	}
	vectors := cfg.Vectors
	if vectors <= 0 {
		vectors = DefaultVectors
	}
	vectors = cfg.Budget.CapSimVectors(vectors)
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	// Degenerate sizing: never create zero-vector shards. SplitRange
	// clamps the same way; this keeps Run's shard count and the range
	// list in lockstep.
	if shards > vectors {
		shards = vectors
	}
	ranges := par.SplitRange(vectors, shards)
	p := newBlockParams(b)
	pc := newBlockedPrecomp(b)
	results, err := par.Map(context.Background(), len(ranges), cfg.Workers,
		func(ctx context.Context, s int) (*shardResult, error) {
			n := ranges[s][1] - ranges[s][0]
			if n <= 0 {
				// The sizing above never makes an empty shard; belt and
				// braces.
				return newShardResult(b), nil
			}
			return kernel(ctx, b, cfg, p, pc, cfg.Seed+int64(s), n)
		})
	if err != nil {
		return nil, err
	}

	// Reduce in shard order. Integer counts are order-free, so the
	// reduction is reproducible at any worker count.
	rep := &Report{Cycles: vectors, PerCellFreq: make([]float64, len(b.Cells))}
	cellTrans := make([]int64, len(b.Cells))
	invTrans := make([]int64, len(b.Phase.Inputs))
	outTrans := make([]int64, len(b.Phase.Outputs))
	var gating KernelStats
	for _, sr := range results {
		for ci, t := range sr.cellTrans {
			cellTrans[ci] += t
		}
		for pos, t := range sr.inputInvTrans {
			invTrans[pos] += t
		}
		for oi, t := range sr.outputInvTrans {
			outTrans[oi] += t
		}
		gating.GateEvals += sr.gateEvals
		gating.GateSkips += sr.gateSkips
	}
	if cfg.Stats != nil {
		*cfg.Stats = gating
	}
	// Weight the merged integer counts once, in fixed index order — the
	// power figures are exact functions of the counts, independent of
	// shard execution order and worker count.
	for ci, t := range cellTrans {
		rep.DominoTransitions += t
		rep.PerCellFreq[ci] = float64(t) / float64(vectors)
		rep.DominoPower += p.weights[ci] * float64(t)
	}
	for _, pos := range p.invPos {
		rep.InputInvTransitions += invTrans[pos]
		rep.InputInvPower += p.invLoad[pos] * float64(invTrans[pos])
	}
	for _, oi := range p.negOut {
		rep.OutputInvTransitions += outTrans[oi]
		rep.OutputInvPower += p.outCap * float64(outTrans[oi])
	}
	inv := 1.0 / float64(vectors)
	rep.DominoPower *= inv
	rep.InputInvPower *= inv
	rep.OutputInvPower *= inv
	rep.Total = rep.DominoPower + rep.InputInvPower + rep.OutputInvPower
	return rep, nil
}
