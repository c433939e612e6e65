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
// Two kernels implement the same measurement. The default blocked
// kernel packs up to 512 cycles into a block of 8 uint64 words per net,
// counts transitions with popcounts, and skips gates whose inputs did
// not change between blocks (activity gating); one pass serves every
// block size, tail and CI mode. The scalar kernel evaluates one []bool
// vector per cycle and is kept as the reference oracle. Both draw their
// Bernoulli inputs through packInputs on a math/rand generator in the
// same window order and fold the same counts in the same order, so for
// every (Seed, Shards) they produce byte-identical Reports.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/stats"
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

// simWindow is the statistics window: transition counts fold into the
// shard totals and the batch-means variance accumulator every simWindow
// cycles. It equals the uint64 lane count so the blocked kernel closes
// exactly one window per machine word.
const simWindow = 64

// perCycleCIThreshold selects the confidence-interval sampling mode:
// when the smallest shard has fewer than two full windows, the batch
// sample would be too small (or empty) for a meaningful variance, so
// both kernels fall back to genuine per-cycle samples — cheap there,
// since such runs are at most a couple of words per shard.
const perCycleCIThreshold = 2 * simWindow

// bernoulliBits is the resolution of the Bernoulli input generator:
// probabilities are rounded to this many binary digits (quantization
// error ≤ 2^-31, far below Monte-Carlo noise at any realistic vector
// count; exact for dyadic probabilities such as 0, 0.25, 0.5, 1).
const bernoulliBits = 30

// bernoulliWord draws 64 independent Bernoulli(p) lanes as one uint64
// using the dyadic-expansion trick: with p = 0.b1b2…bK in binary,
// fold one uniform word per digit from least to most significant —
// w = r|w for a 1 digit, r&w for a 0 digit — which halves the lane
// probability per step and adds ½ at every 1 digit. Trailing zero digits
// are skipped (they cannot change an all-zero word), so the rng
// consumption is a pure function of p: one draw for p = 0.5, at most
// bernoulliBits draws in general. Compared with 64 Float64 draws per
// word this is what keeps the packed kernels from being rng-bound.
func bernoulliWord(rng *rand.Rand, p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	q := uint32(p*(1<<bernoulliBits) + 0.5)
	if p <= 0 || q == 0 {
		return 0
	}
	if q >= 1<<bernoulliBits {
		return ^uint64(0)
	}
	tz := uint(bits.TrailingZeros32(q))
	q >>= tz
	w := uint64(0)
	for j := uint(0); j < bernoulliBits-tz; j++ {
		r := rng.Uint64()
		if q&1 == 1 {
			w |= r
		} else {
			w &= r
		}
		q >>= 1
	}
	return w
}

// packInputs fills words[i] with one window's packed Bernoulli draws for
// every input: bit k of words[i] is input i's value in cycle k of the
// window. Both kernels call exactly this, in the same window order, so
// they simulate the same vector sequence for a given seed.
func packInputs(rng *rand.Rand, probs []float64, words []uint64) {
	for i, p := range probs {
		words[i] = bernoulliWord(rng, p)
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
	// packed dyadic-expansion generator (see bernoulliWord), so a given
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
	// TotalCI is the 95% confidence interval of Total: centered on the
	// exact count-derived Total, with the half-width estimated by the
	// batch-means method over full 64-cycle windows (partial tail
	// windows are excluded from the variance sample), or from genuine
	// per-cycle samples when shards are shorter than two windows —
	// Monte-Carlo numbers come with error bars.
	TotalCI stats.Interval
	// PerCellFreq is each domino cell's measured switching frequency
	// (transitions per cycle), parallel to Block.Cells.
	PerCellFreq []float64
}

// blockParams is the precomputed per-block weighting shared by both
// kernels and the final report assembly, so every float in the Report is
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
// the merge step folds shards in index order and weights once at the
// end. All floats derive from integer counts, so the merge is exact.
type shardResult struct {
	cellTrans      []int64
	inputInvTrans  []int64 // per block-input position
	outputInvTrans []int64 // per output index
	perCycle       stats.Running
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

// window holds one simWindow-cycle window's transition counts. The
// scalar kernel increments them cycle by cycle. fold is the single
// place its counts become floats; the blocked kernel inlines the same
// fold order.
type window struct {
	cell []int32
	inv  []int32
	out  []int32
}

func newWindow(b *domino.Block) *window {
	return &window{
		cell: make([]int32, len(b.Cells)),
		inv:  make([]int32, len(b.Phase.Inputs)),
		out:  make([]int32, len(b.Phase.Outputs)),
	}
}

// fold closes a window of `lanes` cycles: counts roll into the shard
// totals and, when addBatch is set (batch-means mode, full windows
// only — a partial tail would feed a skewed sample), the window's mean
// per-cycle power feeds the variance accumulator. Both kernels call
// exactly this function with the same counts in the same order, which
// is what makes their Reports byte-identical.
func (w *window) fold(sr *shardResult, p *blockParams, lanes int, addBatch bool) {
	sum := 0.0
	for ci, c := range w.cell {
		if c != 0 {
			sum += p.weights[ci] * float64(c)
			sr.cellTrans[ci] += int64(c)
			w.cell[ci] = 0
		}
	}
	for _, pos := range p.invPos {
		if c := w.inv[pos]; c != 0 {
			sum += p.invLoad[pos] * float64(c)
			sr.inputInvTrans[pos] += int64(c)
			w.inv[pos] = 0
		}
	}
	for _, oi := range p.negOut {
		if c := w.out[oi]; c != 0 {
			sum += p.outCap * float64(c)
			sr.outputInvTrans[oi] += int64(c)
			w.out[oi] = 0
		}
	}
	if addBatch {
		sr.perCycle.Add(sum / float64(lanes))
	}
}

// runShardScalar simulates `vectors` cycles one bool vector at a time
// with a dedicated rng seeded `seed`, checking ctx between windows so a
// sibling shard's failure aborts early. It is the reference oracle for
// the blocked kernel: it unpacks the same per-window input words
// (packInputs) lane by lane and closes the same window folds. With
// perCycleCI it feeds the variance accumulator one genuine per-cycle
// power sample per cycle instead of batch means.
func runShardScalar(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, perCycleCI bool, seed int64, vectors int) (*shardResult, error) {
	net := b.Net
	rng := rand.New(rand.NewSource(seed))

	origWords := make([]uint64, len(cfg.InputProbs))
	origVals := make([]bool, len(cfg.InputProbs))
	blockVals := make([]bool, net.NumInputs())
	prevBlockVals := make([]bool, net.NumInputs())
	havePrev := false

	scratch := make([]bool, net.NumNodes())
	sr := newShardResult(b)
	win := newWindow(b)

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

			cyclePower := 0.0
			// Domino cells: one transition pair per evaluate-high cycle.
			for ci := range b.Cells {
				if values[b.Cells[ci].Node] {
					win.cell[ci]++
					if perCycleCI {
						cyclePower += p.weights[ci]
					}
				}
			}
			// Input-boundary inverters: static gates, toggle on change.
			if havePrev {
				for _, pos := range p.invPos {
					if blockVals[pos] != prevBlockVals[pos] {
						win.inv[pos]++
						if perCycleCI {
							cyclePower += p.invLoad[pos]
						}
					}
				}
			}
			// Output-boundary inverters: driven by domino outputs, they
			// switch whenever the driver evaluates high (and precharges).
			for _, oi := range p.negOut {
				if values[p.drivers[oi]] {
					win.out[oi]++
					if perCycleCI {
						cyclePower += p.outCap
					}
				}
			}
			if perCycleCI {
				sr.perCycle.Add(cyclePower)
			}
			copy(prevBlockVals, blockVals)
			havePrev = true
		}
		win.fold(sr, p, lanes, !perCycleCI && lanes == simWindow)
	}
	return sr, nil
}

// runShard dispatches to the configured kernel; zero-vector shards (which
// the sizing logic never produces, but belt and braces) return an empty
// result rather than feeding the merge degenerate statistics. p — and pc,
// for the blocked kernel — are built once per Run and shared read-only by
// all shard goroutines.
func runShard(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, perCycleCI bool, seed int64, vectors int) (*shardResult, error) {
	if vectors <= 0 {
		return newShardResult(b), nil
	}
	switch cfg.Kernel {
	case KernelScalar:
		return runShardScalar(ctx, b, cfg, p, perCycleCI, seed, vectors)
	default: // KernelAuto, KernelBlocked, and the reserved value 1
		return runShardBlocked(ctx, b, cfg, p, pc, perCycleCI, seed, vectors)
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
	// CI sampling mode is a run-level decision (all shards agree, so the
	// merged Welford samples are homogeneous): batch means over full
	// 64-cycle windows normally, genuine per-cycle samples when the
	// smallest shard is too short to yield two full windows.
	perCycleCI := vectors/shards < perCycleCIThreshold
	results, err := par.Map(context.Background(), len(ranges), cfg.Workers,
		func(ctx context.Context, s int) (*shardResult, error) {
			return runShard(ctx, b, cfg, p, pc, perCycleCI, cfg.Seed+int64(s), ranges[s][1]-ranges[s][0])
		})
	if err != nil {
		return nil, err
	}

	// Reduce in shard order: integer counts are order-free and the
	// Welford merge is fixed by the index order, so the reduction is
	// reproducible at any worker count.
	rep := &Report{Cycles: vectors, PerCellFreq: make([]float64, len(b.Cells))}
	cellTrans := make([]int64, len(b.Cells))
	invTrans := make([]int64, len(b.Phase.Inputs))
	outTrans := make([]int64, len(b.Phase.Outputs))
	var perCycle stats.Running
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
		perCycle = stats.Merge(perCycle, sr.perCycle)
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
	// Batch means estimate the sampling error; their plain average would
	// over-weight a partial tail window, so the interval is centered on
	// the exact count-derived Total instead.
	ci := perCycle.Confidence(stats.Z95)
	rep.TotalCI = stats.Interval{
		Mean: rep.Total,
		Low:  rep.Total - (ci.High - ci.Mean),
		High: rep.Total + (ci.High - ci.Mean),
	}
	return rep, nil
}

// StaticGlitches simulates a combinational network as *static* CMOS under
// a unit-delay model for a sequence of random vector pairs and returns
// (totalTransitions, glitchTransitions): transitions beyond the first per
// node per cycle are glitches. Domino blocks, by Property 2.2, never
// glitch; this function exists to demonstrate the contrast.
func StaticGlitches(net *logic.Network, inputProbs []float64, vectors int, seed int64) (total, glitches int64, err error) {
	if len(inputProbs) != net.NumInputs() {
		return 0, 0, fmt.Errorf("sim: %d input probs for %d inputs", len(inputProbs), net.NumInputs())
	}
	if vectors <= 0 {
		vectors = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	numNodes := net.NumNodes()
	cur := make([]bool, numNodes)
	next := make([]bool, numNodes)
	inVals := make([]bool, net.NumInputs())
	transitions := make([]int, numNodes)

	// Settle the initial vector.
	for i := range inVals {
		inVals[i] = rng.Float64() < inputProbs[i]
	}
	settled := net.Eval(inVals, cur)
	copy(cur, settled)

	step := func() bool {
		changed := false
		for i := 0; i < numNodes; i++ {
			id := logic.NodeID(i)
			node := net.Node(id)
			var v bool
			switch node.Kind {
			case logic.KindInput:
				v = cur[i]
			case logic.KindConst0:
				v = false
			case logic.KindConst1:
				v = true
			case logic.KindBuf:
				v = cur[node.Fanins[0]]
			case logic.KindNot:
				v = !cur[node.Fanins[0]]
			case logic.KindAnd:
				v = true
				for _, f := range node.Fanins {
					v = v && cur[f]
				}
			case logic.KindOr:
				v = false
				for _, f := range node.Fanins {
					v = v || cur[f]
				}
			case logic.KindXor:
				v = false
				for _, f := range node.Fanins {
					v = v != cur[f]
				}
			}
			next[i] = v
			if v != cur[i] {
				changed = true
				transitions[i]++
			}
		}
		cur, next = next, cur
		return changed
	}

	inputPos := make(map[logic.NodeID]int, net.NumInputs())
	for pos, id := range net.Inputs() {
		inputPos[id] = pos
	}
	depth := net.Depth() + 2
	for cycle := 0; cycle < vectors; cycle++ {
		for i := range transitions {
			transitions[i] = 0
		}
		// New input vector applied at once; gates update with unit delay.
		for i := range inVals {
			inVals[i] = rng.Float64() < inputProbs[i]
		}
		for id, pos := range inputPos {
			cur[id] = inVals[pos]
		}
		for step() {
			// A combinational network under unit delay settles within
			// its depth; guard against miscounted loops anyway.
			depth--
			if depth < -10_000_000 {
				return 0, 0, fmt.Errorf("sim: static simulation did not settle")
			}
		}
		depth = net.Depth() + 2
		for i := 0; i < numNodes; i++ {
			if net.Kind(logic.NodeID(i)).IsGate() {
				t := int64(transitions[i])
				total += t
				if t > 1 {
					glitches += t - 1
				}
			}
		}
	}
	return total, glitches, nil
}
