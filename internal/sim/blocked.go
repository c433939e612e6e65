package sim

import (
	"context"
	"math/bits"

	"repro/internal/domino"
	"repro/internal/logic"
)

// MaxBlockWords is the largest blocked-kernel block: 8 words × 64 lanes
// = 512 packed cycles per evaluation step. It is the default block size
// and the width of the unrolled full-block fast path.
const MaxBlockWords = 8

// blockWordsOf resolves Config.BlockWords to a legal block size: 0 means
// MaxBlockWords, other values are clamped to 1..MaxBlockWords.
func blockWordsOf(cfg Config) int {
	bw := cfg.BlockWords
	if bw == 0 || bw > MaxBlockWords {
		return MaxBlockWords
	}
	if bw < 1 {
		return 1
	}
	return bw
}

// KernelStats reports the blocked kernel's cumulative activity-gating
// counters: how many per-gate block evaluations ran and how many were
// skipped because no fanin block changed. They are deterministic for a
// fixed (Seed, Shards, BlockWords) — the gating decision is a pure
// function of the generated vector stream — and always zero for the
// scalar kernel.
type KernelStats struct {
	GateEvals int64
	GateSkips int64
}

// SkipRate returns the fraction of gate-block evaluations the activity
// gate removed (0 when nothing was counted).
func (s KernelStats) SkipRate() float64 {
	if t := s.GateEvals + s.GateSkips; t > 0 {
		return float64(s.GateSkips) / float64(t)
	}
	return 0
}

// bernoulliPlan is the per-input compilation of bernoulliWord: the
// probability's dyadic digits are extracted once per shard instead of
// once per window, so the hot packing loop does no float work. n is the
// number of rng draws (bernoulliBits − trailing zeros of the quantized
// probability, exactly bernoulliWord's count — the plans must consume
// the shared generator in lockstep with the other kernels); digits holds
// the remaining digits LSB-first (the lowest is always 1). n == 0 marks
// a constant input, where the word is constW and the rng is untouched.
type bernoulliPlan struct {
	digits uint32
	n      uint8
	constW uint64
}

func makeBernoulliPlans(probs []float64) []bernoulliPlan {
	plans := make([]bernoulliPlan, len(probs))
	for i, p := range probs {
		if p >= 1 {
			plans[i] = bernoulliPlan{constW: ^uint64(0)}
			continue
		}
		q := uint32(p*(1<<bernoulliBits) + 0.5)
		if p <= 0 || q == 0 {
			continue // all-zero word, no draws
		}
		if q >= 1<<bernoulliBits {
			plans[i] = bernoulliPlan{constW: ^uint64(0)}
			continue
		}
		tz := uint(bits.TrailingZeros32(q))
		plans[i] = bernoulliPlan{digits: q >> tz, n: uint8(bernoulliBits - tz)}
	}
	return plans
}

// draw produces the next 64-lane Bernoulli word, bit-identical to
// bernoulliWord on the same generator state.
func (pl *bernoulliPlan) draw(rng *rngClone) uint64 {
	n := int(pl.n)
	if n == 0 {
		return pl.constW
	}
	// The lowest digit is always 1, so the first fold w|=r of w=0 is
	// just w=r.
	w := rng.uint64n()
	q := pl.digits
	for j := 1; j < n; j++ {
		r := rng.uint64n()
		if q>>uint(j)&1 == 1 {
			w |= r
		} else {
			w &= r
		}
	}
	return w
}

// The [8]uint64 block primitives below serve the full-block fast path:
// each recomputes one gate's 8-word block in place and returns the OR of
// the changed destination bits. Writing the eight lanes out longhand
// matters — gc does not unroll loops, and the straight-line form keeps
// the eight independent word chains in flight instead of paying loop
// control per word.

func and8(dst, a, b *[8]uint64) uint64 {
	v0, v1, v2, v3 := a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
	v4, v5, v6, v7 := a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func or8(dst, a, b *[8]uint64) uint64 {
	v0, v1, v2, v3 := a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
	v4, v5, v6, v7 := a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func xor8(dst, a, b *[8]uint64) uint64 {
	v0, v1, v2, v3 := a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
	v4, v5, v6, v7 := a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func not8(dst, a *[8]uint64) uint64 {
	v0, v1, v2, v3 := ^a[0], ^a[1], ^a[2], ^a[3]
	v4, v5, v6, v7 := ^a[4], ^a[5], ^a[6], ^a[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func copy8(dst, a *[8]uint64) uint64 {
	d := (dst[0] ^ a[0]) | (dst[1] ^ a[1]) | (dst[2] ^ a[2]) | (dst[3] ^ a[3]) |
		(dst[4] ^ a[4]) | (dst[5] ^ a[5]) | (dst[6] ^ a[6]) | (dst[7] ^ a[7])
	*dst = *a
	return d
}

// store8 diff-stores an accumulated n-ary result.
func store8(dst, t *[8]uint64) uint64 {
	d := (dst[0] ^ t[0]) | (dst[1] ^ t[1]) | (dst[2] ^ t[2]) | (dst[3] ^ t[3]) |
		(dst[4] ^ t[4]) | (dst[5] ^ t[5]) | (dst[6] ^ t[6]) | (dst[7] ^ t[7])
	*dst = *t
	return d
}

// and38/or38/and48/or48 specialize the common narrow wide-gate widths
// (domino cells are mostly 2–4 inputs), skipping the tmp-accumulate +
// diff-store round trip of the general n-ary path.

func and38(dst, a, b, c *[8]uint64) uint64 {
	v0, v1, v2, v3 := a[0]&b[0]&c[0], a[1]&b[1]&c[1], a[2]&b[2]&c[2], a[3]&b[3]&c[3]
	v4, v5, v6, v7 := a[4]&b[4]&c[4], a[5]&b[5]&c[5], a[6]&b[6]&c[6], a[7]&b[7]&c[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func or38(dst, a, b, c *[8]uint64) uint64 {
	v0, v1, v2, v3 := a[0]|b[0]|c[0], a[1]|b[1]|c[1], a[2]|b[2]|c[2], a[3]|b[3]|c[3]
	v4, v5, v6, v7 := a[4]|b[4]|c[4], a[5]|b[5]|c[5], a[6]|b[6]|c[6], a[7]|b[7]|c[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func and48(dst, a, b, c, e *[8]uint64) uint64 {
	v0, v1 := a[0]&b[0]&c[0]&e[0], a[1]&b[1]&c[1]&e[1]
	v2, v3 := a[2]&b[2]&c[2]&e[2], a[3]&b[3]&c[3]&e[3]
	v4, v5 := a[4]&b[4]&c[4]&e[4], a[5]&b[5]&c[5]&e[5]
	v6, v7 := a[6]&b[6]&c[6]&e[6], a[7]&b[7]&c[7]&e[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

func or48(dst, a, b, c, e *[8]uint64) uint64 {
	v0, v1 := a[0]|b[0]|c[0]|e[0], a[1]|b[1]|c[1]|e[1]
	v2, v3 := a[2]|b[2]|c[2]|e[2], a[3]|b[3]|c[3]|e[3]
	v4, v5 := a[4]|b[4]|c[4]|e[4], a[5]|b[5]|c[5]|e[5]
	v6, v7 := a[6]|b[6]|c[6]|e[6], a[7]|b[7]|c[7]|e[7]
	d := (dst[0] ^ v0) | (dst[1] ^ v1) | (dst[2] ^ v2) | (dst[3] ^ v3) |
		(dst[4] ^ v4) | (dst[5] ^ v5) | (dst[6] ^ v6) | (dst[7] ^ v7)
	dst[0], dst[1], dst[2], dst[3] = v0, v1, v2, v3
	dst[4], dst[5], dst[6], dst[7] = v4, v5, v6, v7
	return d
}

// count8 folds one full block of a counted node into the per-window
// weighted sums and returns the block's total transition count. The
// adds into sums[j] happen in the caller's source order (cells
// ascending, then input inverters, then negated outputs) — the float
// sequence window.fold produces per window. fold skips zero counts,
// but the adds here are unconditional: the sums only ever accumulate
// non-negative products, so they are never −0.0, and adding a zero
// product to a non-negative IEEE double in round-to-nearest is a
// bit-exact identity — the branchless form produces the same bits
// while letting the eight popcount chains pipeline.
func count8(w *[8]uint64, weight float64, sums *[8]float64) int64 {
	c0, c1 := bits.OnesCount64(w[0]), bits.OnesCount64(w[1])
	c2, c3 := bits.OnesCount64(w[2]), bits.OnesCount64(w[3])
	c4, c5 := bits.OnesCount64(w[4]), bits.OnesCount64(w[5])
	c6, c7 := bits.OnesCount64(w[6]), bits.OnesCount64(w[7])
	sums[0] += weight * float64(c0)
	sums[1] += weight * float64(c1)
	sums[2] += weight * float64(c2)
	sums[3] += weight * float64(c3)
	sums[4] += weight * float64(c4)
	sums[5] += weight * float64(c5)
	sums[6] += weight * float64(c6)
	sums[7] += weight * float64(c7)
	return int64(c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7)
}

// count8d is count8 over eight freshly computed diff words, passed in
// registers so the caller skips materializing a block on the stack.
func count8d(d0, d1, d2, d3, d4, d5, d6, d7 uint64, weight float64, sums *[8]float64) int64 {
	c0, c1 := bits.OnesCount64(d0), bits.OnesCount64(d1)
	c2, c3 := bits.OnesCount64(d2), bits.OnesCount64(d3)
	c4, c5 := bits.OnesCount64(d4), bits.OnesCount64(d5)
	c6, c7 := bits.OnesCount64(d6), bits.OnesCount64(d7)
	sums[0] += weight * float64(c0)
	sums[1] += weight * float64(c1)
	sums[2] += weight * float64(c2)
	sums[3] += weight * float64(c3)
	sums[4] += weight * float64(c4)
	sums[5] += weight * float64(c5)
	sums[6] += weight * float64(c6)
	sums[7] += weight * float64(c7)
	return int64(c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7)
}

// Gate opcodes for the precompiled gate table, ordered so that every op
// ≤ opBuf reads at most the two inline fanins f0/f1. Widths 3 and 4 of
// And/Or — the domino cell widths — get dedicated ops; opAndN/opOrN/
// opXorN cover the rest via the flat fanin array.
const (
	opAnd2 = iota
	opOr2
	opXor2
	opNot
	opBuf
	opAnd3
	opOr3
	opAnd4
	opOr4
	opAndN
	opOrN
	opXorN
)

// fastGate is one row of the blocked kernel's precompiled gate table: a
// flat, cache-friendly encoding of (node, kind, fanins, cell index)
// that replaces the per-node Node()/Kind()/CellOf lookups in the hot
// loop. For unary ops f1 == f0 so the two-flag gating test is uniform;
// wide gates (> 2 fanins) index the shared flat fanin array.
type fastGate struct {
	dst    int32
	f0, f1 int32
	f2, f3 int32 // third/fourth fanin for opAnd3..opOr4 (else f0)
	cell   int32 // index into Cells, or -1
	fanOff int32 // into blockedPrecomp.fanins, gates wider than 2 only
	nfan   int32
	op     uint8
}

// blockedPrecomp is the read-only, shard-independent state of the
// blocked kernel, built once per Run and shared by every shard
// goroutine: the compiled Bernoulli plans, the phase input mapping, and
// the gate table. cellsMonotone records that domino.Map emitted Cells
// in ascending node order — the property that lets the full-block fast
// path fold cell counting into the gate pass without breaking fold's
// float order. It always holds for Map's output; without it every block
// takes the general pass, which counts cells in Cells order.
type blockedPrecomp struct {
	plans         []bernoulliPlan
	allSimple     bool // every input draws exactly one word (e.g. p = 0.5)
	srcIdx        []int32
	invMask       []uint64
	inputNode     []int32
	gates         []fastGate
	fanins        []int32
	cellsMonotone bool
}

func newBlockedPrecomp(b *domino.Block, probs []float64) *blockedPrecomp {
	net := b.Net
	pc := &blockedPrecomp{
		plans:         makeBernoulliPlans(probs),
		allSimple:     true,
		cellsMonotone: true,
	}
	for i := range pc.plans {
		if pc.plans[i].n != 1 {
			pc.allSimple = false
			break
		}
	}
	for ci := 1; ci < len(b.Cells); ci++ {
		if b.Cells[ci].Node <= b.Cells[ci-1].Node {
			pc.cellsMonotone = false
			break
		}
	}
	inputIDs := net.Inputs()
	pc.srcIdx = make([]int32, len(inputIDs))
	pc.invMask = make([]uint64, len(inputIDs))
	pc.inputNode = make([]int32, len(inputIDs))
	for pos, bi := range b.Phase.Inputs {
		pc.srcIdx[pos] = int32(bi.InputPos)
		if bi.Inverted {
			pc.invMask[pos] = ^uint64(0)
		}
		pc.inputNode[pos] = int32(inputIDs[pos])
	}
	numGates, wideFanins := 0, 0
	for i := 0; i < net.NumNodes(); i++ {
		node := net.Node(logic.NodeID(i))
		if node.Kind.IsGate() {
			numGates++
			if len(node.Fanins) > 2 {
				wideFanins += len(node.Fanins)
			}
		}
	}
	pc.gates = make([]fastGate, 0, numGates)
	pc.fanins = make([]int32, 0, wideFanins)
	for i := 0; i < net.NumNodes(); i++ {
		node := net.Node(logic.NodeID(i))
		if !node.Kind.IsGate() {
			continue
		}
		fan := node.Fanins
		g := fastGate{dst: int32(i), cell: int32(b.CellOf[i]), nfan: int32(len(fan))}
		g.f0 = int32(fan[0])
		g.f1, g.f2, g.f3 = g.f0, g.f0, g.f0
		if len(fan) > 1 {
			g.f1 = int32(fan[1])
		}
		if len(fan) > 2 {
			g.f2 = int32(fan[2])
		}
		if len(fan) > 3 {
			g.f3 = int32(fan[3])
		}
		switch node.Kind {
		case logic.KindNot:
			g.op = opNot
		case logic.KindBuf:
			g.op = opBuf
		case logic.KindAnd:
			switch len(fan) {
			case 3:
				g.op = opAnd3
			case 4:
				g.op = opAnd4
			default:
				g.op = opAnd2
				if len(fan) > 2 {
					g.op = opAndN
				}
			}
		case logic.KindOr:
			switch len(fan) {
			case 3:
				g.op = opOr3
			case 4:
				g.op = opOr4
			default:
				g.op = opOr2
				if len(fan) > 2 {
					g.op = opOrN
				}
			}
		default:
			g.op = opXor2
			if len(fan) > 2 {
				g.op = opXorN
			}
		}
		if len(fan) > 2 {
			// All wide gates — including the specialized widths — keep a
			// flat fanin list for the gating scan and the general pass.
			g.fanOff = int32(len(pc.fanins))
			for _, f := range fan {
				pc.fanins = append(pc.fanins, int32(f))
			}
		}
		pc.gates = append(pc.gates, g)
	}
	return pc
}

// runShardBlocked is the blocked kernel. It simulates `vectors` cycles
// in blocks of bw = blockWordsOf(cfg) 64-lane words: window base+j of
// the shard lives in word j of every node's block. Inputs are drawn
// window-major with the per-input bernoulliPlans on the devirtualized
// generator clone, which consumes the exact rng stream of packInputs —
// so the block's words are the packed form of the scalar oracle's
// vectors — and every count folds into the shard totals in fold's order
// (per window: cells ascending, then input inverters, then negated
// outputs). That makes its Reports byte-identical to the scalar
// kernel's for any (Seed, Shards, BlockWords)
// (TestBlockedMatchesScalarAndWideKernels). pc is built once per Run and
// shared read-only across shards.
//
// Gating: a gate whose fanin blocks all carry an unchanged flag is
// skipped (its stored words are provably the correct value), and
// skipped cells are still counted from their stored words — gating
// elides evaluation, never measurement. Every block makes one eval or
// skip decision per gate; the first block evaluates every gate.
//
// Each block then takes one of two passes:
//
//   - The full-block fast path, when bw is 8, the block holds eight
//     complete windows, CI is in batch-means mode and pc.cellsMonotone
//     holds. It walks the precompiled gate table with every per-window
//     loop unrolled over [8]uint64 node blocks, counts each domino cell
//     inside the gate pass while its block is hot — legal because
//     domino.Map appends Cells in ascending node order, so the fused
//     pass meets fold's cells-ascending float order for every window —
//     and keeps eight independent per-window float accumulators, so the
//     batch-means sums pipeline instead of serializing on FP-add latency
//     as the one-window fold does.
//   - The general pass serves every other block: any bw from 1 to 8, a
//     tail shorter than bw windows or ending in a partial window,
//     per-cycle CI, and a Cells order out of node order. It loops over
//     the live windows only — dead word slots keep the previous block's
//     values, which is deterministic and invisible to the Report — and
//     counts in separate passes after the gate walk. In batch-means mode
//     each window's weighted counts add into sums[j]; in per-cycle CI
//     mode each event word scatters its weight into lanePower[j], so
//     every lane receives its float adds in the scalar oracle's
//     within-cycle order before feeding one Welford sample.
func runShardBlocked(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, perCycleCI bool, seed int64, vectors int) (*shardResult, error) {
	bw := blockWordsOf(cfg)
	net := b.Net
	numNodes := net.NumNodes()
	plans := pc.plans
	nIn := len(plans)

	rng := newRngClone(seed)

	// ws[id] is node id's block (a block of bw < 8 words uses its first
	// bw slots); origWords stages input i's words in row i.
	ws := make([][MaxBlockWords]uint64, numNodes)
	changed := make([]bool, numNodes)
	origWords := make([]uint64, nIn*MaxBlockWords)
	prevBit := make([]uint64, len(pc.inputNode))
	sr := newShardResult(b)
	var evals, skips int64
	var sums [MaxBlockWords]float64
	var lanePower [MaxBlockWords][simWindow]float64

	// Constant blocks are set once; their change flags stay false (the
	// first block evaluates every gate regardless).
	for i := 0; i < numNodes; i++ {
		if net.Kind(logic.NodeID(i)) == logic.KindConst1 {
			for j := range ws[i] {
				ws[i][j] = ^uint64(0)
			}
		}
	}

	numWin := (vectors + simWindow - 1) / simWindow
	for base := 0; base < numWin; base += bw {
		if err := pollCancel(ctx, cfg.Budget); err != nil {
			return nil, err
		}
		nw := numWin - base
		if nw > bw {
			nw = bw
		}
		first := base == 0

		// Stage 1: draw window-major, inputs in order within each window
		// — the exact packInputs consumption order — into the staging
		// buffer (input-major rows, so the apply pass reads each source
		// block contiguously). Drawing p=0.5 inputs (one digit) with a
		// single inlined generator call skips the plan dispatch; when
		// every input is p=0.5 the dispatch disappears entirely.
		if pc.allSimple {
			for j := 0; j < nw; j++ {
				for i := 0; i < nIn; i++ {
					origWords[i*MaxBlockWords+j] = rng.uint64n()
				}
			}
		} else {
			for j := 0; j < nw; j++ {
				for i := 0; i < nIn; i++ {
					pl := &plans[i]
					switch pl.n {
					case 1:
						origWords[i*MaxBlockWords+j] = rng.uint64n()
					case 0:
						origWords[i*MaxBlockWords+j] = pl.constW
					default:
						origWords[i*MaxBlockWords+j] = pl.draw(rng)
					}
				}
			}
		}

		// Stage 2: phase apply — each block position copies its source
		// input's block with the inversion folded in as an XOR mask
		// (branch-free), diffing against the previous contents to seed
		// the gating flags. One PI may fan out to two positions after
		// phase separation, so this runs per position, not per input.
		if nw == MaxBlockWords {
			for pos, id := range pc.inputNode {
				src := (*[MaxBlockWords]uint64)(origWords[int(pc.srcIdx[pos])*MaxBlockWords:])
				m := pc.invMask[pos]
				w := &ws[id]
				v0, v1, v2, v3 := src[0]^m, src[1]^m, src[2]^m, src[3]^m
				v4, v5, v6, v7 := src[4]^m, src[5]^m, src[6]^m, src[7]^m
				d := (w[0] ^ v0) | (w[1] ^ v1) | (w[2] ^ v2) | (w[3] ^ v3) |
					(w[4] ^ v4) | (w[5] ^ v5) | (w[6] ^ v6) | (w[7] ^ v7)
				w[0], w[1], w[2], w[3] = v0, v1, v2, v3
				w[4], w[5], w[6], w[7] = v4, v5, v6, v7
				changed[id] = d != 0 || first
			}
		} else {
			// Only live words are written; dead slots keep the previous
			// block's values.
			for pos, id := range pc.inputNode {
				src := origWords[int(pc.srcIdx[pos])*MaxBlockWords:]
				m := pc.invMask[pos]
				w := &ws[id]
				var d uint64
				for j := 0; j < nw; j++ {
					v := src[j] ^ m
					d |= w[j] ^ v
					w[j] = v
				}
				changed[id] = d != 0 || first
			}
		}

		if nw == MaxBlockWords && vectors >= (base+MaxBlockWords)*simWindow && !perCycleCI && pc.cellsMonotone {
			// ---- Full-block fast path: eight complete 64-lane windows. ----

			// Gate-table walk, ascending by node, cells counted in place.
			sums = [MaxBlockWords]float64{}
			var tmp [MaxBlockWords]uint64
			for gi := range pc.gates {
				g := &pc.gates[gi]
				dst := &ws[g.dst]
				eval := first || changed[g.f0] || changed[g.f1]
				if !eval && g.nfan > 2 {
					for _, f := range pc.fanins[g.fanOff+2 : g.fanOff+g.nfan] {
						if changed[f] {
							eval = true
							break
						}
					}
				}
				if eval {
					evals++
					var d uint64
					switch g.op {
					case opAnd2:
						d = and8(dst, &ws[g.f0], &ws[g.f1])
					case opOr2:
						d = or8(dst, &ws[g.f0], &ws[g.f1])
					case opXor2:
						d = xor8(dst, &ws[g.f0], &ws[g.f1])
					case opNot:
						d = not8(dst, &ws[g.f0])
					case opBuf:
						d = copy8(dst, &ws[g.f0])
					case opAnd3:
						d = and38(dst, &ws[g.f0], &ws[g.f1], &ws[g.f2])
					case opOr3:
						d = or38(dst, &ws[g.f0], &ws[g.f1], &ws[g.f2])
					case opAnd4:
						d = and48(dst, &ws[g.f0], &ws[g.f1], &ws[g.f2], &ws[g.f3])
					case opOr4:
						d = or48(dst, &ws[g.f0], &ws[g.f1], &ws[g.f2], &ws[g.f3])
					default: // opAndN, opOrN, opXorN
						fans := pc.fanins[g.fanOff : g.fanOff+g.nfan]
						tmp = ws[fans[0]]
						switch g.op {
						case opAndN:
							for _, f := range fans[1:] {
								a := &ws[f]
								tmp[0] &= a[0]
								tmp[1] &= a[1]
								tmp[2] &= a[2]
								tmp[3] &= a[3]
								tmp[4] &= a[4]
								tmp[5] &= a[5]
								tmp[6] &= a[6]
								tmp[7] &= a[7]
							}
						case opOrN:
							for _, f := range fans[1:] {
								a := &ws[f]
								tmp[0] |= a[0]
								tmp[1] |= a[1]
								tmp[2] |= a[2]
								tmp[3] |= a[3]
								tmp[4] |= a[4]
								tmp[5] |= a[5]
								tmp[6] |= a[6]
								tmp[7] |= a[7]
							}
						default:
							for _, f := range fans[1:] {
								a := &ws[f]
								tmp[0] ^= a[0]
								tmp[1] ^= a[1]
								tmp[2] ^= a[2]
								tmp[3] ^= a[3]
								tmp[4] ^= a[4]
								tmp[5] ^= a[5]
								tmp[6] ^= a[6]
								tmp[7] ^= a[7]
							}
						}
						d = store8(dst, &tmp)
					}
					changed[g.dst] = d != 0
				} else {
					skips++
					changed[g.dst] = false
				}
				if ci := g.cell; ci >= 0 {
					// count8's body, inlined by hand: one call per cell
					// per block is measurable at this loop's density.
					weight := p.weights[ci]
					c0, c1 := bits.OnesCount64(dst[0]), bits.OnesCount64(dst[1])
					c2, c3 := bits.OnesCount64(dst[2]), bits.OnesCount64(dst[3])
					c4, c5 := bits.OnesCount64(dst[4]), bits.OnesCount64(dst[5])
					c6, c7 := bits.OnesCount64(dst[6]), bits.OnesCount64(dst[7])
					sums[0] += weight * float64(c0)
					sums[1] += weight * float64(c1)
					sums[2] += weight * float64(c2)
					sums[3] += weight * float64(c3)
					sums[4] += weight * float64(c4)
					sums[5] += weight * float64(c5)
					sums[6] += weight * float64(c6)
					sums[7] += weight * float64(c7)
					sr.cellTrans[ci] += int64(c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7)
				}
			}

			// Input inverters: toggle words with the carry chained
			// across words and blocks; the shard's very first lane has
			// no history.
			for _, pos := range p.invPos {
				w := &ws[pc.inputNode[pos]]
				d0 := w[0] ^ (w[0]<<1 | prevBit[pos])
				d1 := w[1] ^ (w[1]<<1 | w[0]>>63)
				d2 := w[2] ^ (w[2]<<1 | w[1]>>63)
				d3 := w[3] ^ (w[3]<<1 | w[2]>>63)
				d4 := w[4] ^ (w[4]<<1 | w[3]>>63)
				d5 := w[5] ^ (w[5]<<1 | w[4]>>63)
				d6 := w[6] ^ (w[6]<<1 | w[5]>>63)
				d7 := w[7] ^ (w[7]<<1 | w[6]>>63)
				prevBit[pos] = w[7] >> 63
				if first {
					d0 &^= 1
				}
				sr.inputInvTrans[pos] += count8d(d0, d1, d2, d3, d4, d5, d6, d7, p.invLoad[pos], &sums)
			}

			for _, oi := range p.negOut {
				sr.outputInvTrans[oi] += count8(&ws[p.drivers[oi]], p.outCap, &sums)
			}

			for j := 0; j < MaxBlockWords; j++ {
				sr.perCycle.Add(sums[j] / float64(simWindow))
			}
			continue
		}

		// ---- General pass: scalar loops over the nw live windows. ----
		var masks [MaxBlockWords]uint64
		var lanes [MaxBlockWords]int
		for j := 0; j < nw; j++ {
			n := vectors - (base+j)*simWindow
			if n > simWindow {
				n = simWindow
			}
			lanes[j] = n
			masks[j] = ^uint64(0) >> (64 - uint(n))
		}

		var tmp [MaxBlockWords]uint64
		for gi := range pc.gates {
			g := &pc.gates[gi]
			dst := ws[g.dst][:]
			eval := first || changed[g.f0] || changed[g.f1]
			if !eval && g.nfan > 2 {
				for _, f := range pc.fanins[g.fanOff+2 : g.fanOff+g.nfan] {
					if changed[f] {
						eval = true
						break
					}
				}
			}
			if !eval {
				skips++
				changed[g.dst] = false
				continue
			}
			evals++
			var d uint64
			switch g.op {
			case opNot:
				a := ws[g.f0][:]
				for j := 0; j < nw; j++ {
					v := ^a[j]
					d |= dst[j] ^ v
					dst[j] = v
				}
			case opBuf:
				a := ws[g.f0][:]
				for j := 0; j < nw; j++ {
					v := a[j]
					d |= dst[j] ^ v
					dst[j] = v
				}
			case opAnd2:
				a, bb := ws[g.f0][:], ws[g.f1][:]
				for j := 0; j < nw; j++ {
					v := a[j] & bb[j]
					d |= dst[j] ^ v
					dst[j] = v
				}
			case opOr2:
				a, bb := ws[g.f0][:], ws[g.f1][:]
				for j := 0; j < nw; j++ {
					v := a[j] | bb[j]
					d |= dst[j] ^ v
					dst[j] = v
				}
			case opXor2:
				a, bb := ws[g.f0][:], ws[g.f1][:]
				for j := 0; j < nw; j++ {
					v := a[j] ^ bb[j]
					d |= dst[j] ^ v
					dst[j] = v
				}
			default: // all wide ops, specialized widths included
				fans := pc.fanins[g.fanOff : g.fanOff+g.nfan]
				a := ws[fans[0]][:]
				copy(tmp[:nw], a[:nw])
				for _, f := range fans[1:] {
					wf := ws[f][:]
					switch g.op {
					case opAndN, opAnd3, opAnd4:
						for j := 0; j < nw; j++ {
							tmp[j] &= wf[j]
						}
					case opOrN, opOr3, opOr4:
						for j := 0; j < nw; j++ {
							tmp[j] |= wf[j]
						}
					default:
						for j := 0; j < nw; j++ {
							tmp[j] ^= wf[j]
						}
					}
				}
				for j := 0; j < nw; j++ {
					d |= dst[j] ^ tmp[j]
					dst[j] = tmp[j]
				}
			}
			changed[g.dst] = d != 0
		}

		// Count the live windows source by source — cells in Cells
		// order, then input inverters, then negated outputs — skipping
		// zero words, as fold skips zero counts.
		for j := 0; j < nw; j++ {
			sums[j] = 0
			if perCycleCI {
				lanePower[j] = [simWindow]float64{}
			}
		}
		count := func(j int, v uint64, weight float64) int64 {
			c := bits.OnesCount64(v)
			if perCycleCI {
				for t := v; t != 0; t &= t - 1 {
					lanePower[j][bits.TrailingZeros64(t)] += weight
				}
			} else {
				sums[j] += weight * float64(c)
			}
			return int64(c)
		}
		for ci := range b.Cells {
			w := &ws[b.Cells[ci].Node]
			var tot int64
			for j := 0; j < nw; j++ {
				if v := w[j] & masks[j]; v != 0 {
					tot += count(j, v, p.weights[ci])
				}
			}
			sr.cellTrans[ci] += tot
		}
		for _, pos := range p.invPos {
			w := &ws[pc.inputNode[pos]]
			carry := prevBit[pos]
			var tot int64
			for j := 0; j < nw; j++ {
				v := w[j]
				diff := (v ^ (v<<1 | carry)) & masks[j]
				if first && j == 0 {
					diff &^= 1
				}
				carry = (v >> uint(lanes[j]-1)) & 1
				if diff != 0 {
					tot += count(j, diff, p.invLoad[pos])
				}
			}
			prevBit[pos] = carry
			sr.inputInvTrans[pos] += tot
		}
		for _, oi := range p.negOut {
			w := &ws[p.drivers[oi]]
			var tot int64
			for j := 0; j < nw; j++ {
				if v := w[j] & masks[j]; v != 0 {
					tot += count(j, v, p.outCap)
				}
			}
			sr.outputInvTrans[oi] += tot
		}
		for j := 0; j < nw; j++ {
			switch {
			case perCycleCI:
				for k := 0; k < lanes[j]; k++ {
					sr.perCycle.Add(lanePower[j][k])
				}
			case lanes[j] == simWindow:
				sr.perCycle.Add(sums[j] / float64(simWindow))
			}
		}
	}
	sr.gateEvals = evals
	sr.gateSkips = skips
	return sr, nil
}
