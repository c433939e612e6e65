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
// merge. Two kernels produce those counts. The default blocked kernel
// packs up to 512 cycles into a block of 8 uint64 words per net, counts
// transitions with popcounts, and skips gates whose inputs did not
// change between blocks (activity gating); one pass serves every block
// size and tail. The scalar kernel evaluates one []bool vector per cycle
// and is kept as the reference oracle. Both draw their Bernoulli inputs
// through packInputs (prob.BernoulliWord on a math/rand generator) in
// the same window order, so for every (Seed, Shards) they count the same
// transitions and produce byte-identical Reports.
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

// Kernel selects the simulation engine. All kernels produce
// byte-identical Reports; the choice affects wall-clock only.
type Kernel uint8

const (
	// KernelAuto picks the fast engine (currently the blocked
	// multi-word one, KernelBlocked).
	KernelAuto Kernel = iota
	// Value 1 is reserved: configurations carrying it run the blocked
	// kernel, with identical Reports.
	_
	// KernelScalar forces the one-vector-per-cycle reference engine.
	KernelScalar
	// KernelBlocked forces the blocked multi-word engine: BlockWords
	// 64-lane words per net per step with activity gating — gates whose
	// fanin words did not change since the previous block are skipped.
	KernelBlocked
)

// simWindow is the packing window: cycle base+k of a window lives in
// bit k of one uint64 per net, so it equals the uint64 lane count. Both
// kernels draw their inputs one window at a time.
const simWindow = 64

// packInputs fills words[i] with one window's packed Bernoulli draws for
// every input: bit k of words[i] is input i's value in cycle k of the
// window. Both kernels call exactly this, in the same window order, so
// they simulate the same vector sequence for a given seed.
func packInputs(rng *rand.Rand, probs []float64, words []uint64) {
	for i, p := range probs {
		words[i] = prob.BernoulliWord(rng, p)
	}
}

// pollCancel is the kernels' shared cancellation poll: the shard
// context (par.Map's first-error propagation) plus the run's budget
// token (external cancellation: per-circuit timeouts, client
// disconnects). Both are one cheap atomic check.
func pollCancel(ctx context.Context, tok *budget.T) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return tok.Err()
}

// MaxShards is the largest shard count flow.Config.Validate accepts from
// an untrusted configuration. Run keeps every shard's counts until the
// merge, so its memory grows linearly with Shards.
const MaxShards = 1024

// Config parameterizes a simulation run.
type Config struct {
	// Vectors is the number of evaluate cycles (default 4096).
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
	// Kernel selects the engine (see Kernel); the zero value picks the
	// fastest one. Reports do not depend on it.
	Kernel Kernel
	// BlockWords sets the blocked kernel's words-per-block (64 lanes
	// each): 0 means the default (8, i.e. 512 lanes), other values are
	// clamped to 1..MaxBlockWords. Like Kernel and Workers it is
	// a pure wall-clock knob — Reports do not depend on it.
	BlockWords int
	// Stats, when non-nil, receives the blocked kernel's cumulative
	// activity-gating counters, summed over shards in index order. They
	// are deterministic for a fixed (Seed, Shards, BlockWords) and stay
	// zero under the scalar kernel. Stats is an out-parameter
	// only; it never influences the Report.
	Stats *KernelStats
	// Budget is the cancellation/resource token the run honors: the
	// vector count is clamped to the token's sim vector budget before
	// sharding (a pure min, so the clamp is independent of Workers and
	// Shards), and every kernel polls the token for cancellation at its
	// existing context poll sites. Nil means unlimited.
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
	// functions of the integer transition counts (count × weight), so
	// they are identical for both kernels.
	DominoPower    float64
	InputInvPower  float64
	OutputInvPower float64
	Total          float64
	// PerCellFreq is each domino cell's measured switching frequency
	// (transitions per cycle), parallel to Block.Cells.
	PerCellFreq []float64
}

// blockParams is the precomputed per-block layout shared by both kernels
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

// runShardScalar simulates `vectors` cycles one bool vector at a time
// with a dedicated rng seeded `seed`, checking ctx between windows so a
// sibling shard's failure aborts early. It is the reference oracle for
// the blocked kernel: it unpacks the same per-window input words
// (packInputs) lane by lane and increments the shard's counts directly.
func runShardScalar(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, seed int64, vectors int) (*shardResult, error) {
	net := b.Net
	rng := rand.New(rand.NewSource(seed))

	origWords := make([]uint64, len(cfg.InputProbs))
	origVals := make([]bool, len(cfg.InputProbs))
	blockVals := make([]bool, net.NumInputs())
	prevBlockVals := make([]bool, net.NumInputs())
	havePrev := false

	scratch := make([]bool, net.NumNodes())
	sr := newShardResult(b)

	for done := 0; done < vectors; done += simWindow {
		if done%1024 == 0 {
			if err := pollCancel(ctx, cfg.Budget); err != nil {
				return nil, err
			}
		}
		lanes := vectors - done
		if lanes > simWindow {
			lanes = simWindow
		}
		packInputs(rng, cfg.InputProbs, origWords)
		for k := 0; k < lanes; k++ {
			for i := range origVals {
				origVals[i] = origWords[i]>>uint(k)&1 == 1
			}
			for pos, bi := range b.Phase.Inputs {
				v := origVals[bi.InputPos]
				if bi.Inverted {
					v = !v
				}
				blockVals[pos] = v
			}
			values := net.Eval(blockVals, scratch)

			// Domino cells: one transition pair per evaluate-high cycle.
			for ci := range b.Cells {
				if values[b.Cells[ci].Node] {
					sr.cellTrans[ci]++
				}
			}
			// Input-boundary inverters: static gates, toggle on change.
			if havePrev {
				for _, pos := range p.invPos {
					if blockVals[pos] != prevBlockVals[pos] {
						sr.inputInvTrans[pos]++
					}
				}
			}
			// Output-boundary inverters: driven by domino outputs, they
			// switch whenever the driver evaluates high (and precharges).
			for _, oi := range p.negOut {
				if values[p.drivers[oi]] {
					sr.outputInvTrans[oi]++
				}
			}
			copy(prevBlockVals, blockVals)
			havePrev = true
		}
	}
	return sr, nil
}

// runShard dispatches to the configured kernel; zero-vector shards (which
// the sizing logic never produces, but belt and braces) return an empty
// result. p — and pc, for the blocked kernel — are built once per Run and
// shared read-only by all shard goroutines.
func runShard(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, seed int64, vectors int) (*shardResult, error) {
	if vectors <= 0 {
		return newShardResult(b), nil
	}
	switch cfg.Kernel {
	case KernelScalar:
		return runShardScalar(ctx, b, cfg, p, seed, vectors)
	default: // KernelAuto, KernelBlocked, and the reserved value 1
		return runShardBlocked(ctx, b, cfg, p, pc, seed, vectors)
	}
}

// Run simulates the mapped block for cfg.Vectors cycles and returns the
// measured activity. With cfg.Shards > 1 the vector budget is split into
// contiguous shards simulated concurrently on cfg.Workers goroutines;
// see Config for the determinism contract.
func Run(b *domino.Block, cfg Config) (*Report, error) {
	if len(cfg.InputProbs) != len(b.Phase.Original.Inputs()) {
		return nil, fmt.Errorf("sim: %d input probs for %d original inputs",
			len(cfg.InputProbs), len(b.Phase.Original.Inputs()))
	}
	vectors := cfg.Vectors
	if vectors <= 0 {
		vectors = 4096
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
	var pc *blockedPrecomp
	if cfg.Kernel != KernelScalar {
		pc = newBlockedPrecomp(b)
	}
	results, err := par.Map(context.Background(), len(ranges), cfg.Workers,
		func(ctx context.Context, s int) (*shardResult, error) {
			return runShard(ctx, b, cfg, p, pc, cfg.Seed+int64(s), ranges[s][1]-ranges[s][0])
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
	// kernel, shard execution order, and worker count.
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
