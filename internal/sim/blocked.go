package sim

import (
	"context"
	"math/bits"
	"math/rand"

	"repro/internal/domino"
	"repro/internal/logic"
)

// MaxBlockWords is the largest blocked-kernel block: 8 words × 64 lanes
// = 512 packed cycles per evaluation step. It is the default block size.
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
// function of the generated vector stream.
type KernelStats struct {
	GateEvals int64
	GateSkips int64
}

// fastGate is one row of the blocked kernel's precompiled gate table: a
// flat, cache-friendly encoding of (node, kind, fanins) that replaces
// the per-node Node()/Kind() lookups in the hot loop. Every gate's
// fanins live in the shared flat fanin array.
type fastGate struct {
	dst    int32
	fanOff int32 // into blockedPrecomp.fanins
	nfan   int32
	kind   logic.Kind
}

// blockedPrecomp is the read-only, shard-independent state of the
// blocked kernel, built once per Run and shared by every shard
// goroutine: the phase input mapping and the gate table.
type blockedPrecomp struct {
	srcIdx    []int32
	invMask   []uint64
	inputNode []int32
	gates     []fastGate
	fanins    []int32
}

func newBlockedPrecomp(b *domino.Block) *blockedPrecomp {
	net := b.Net
	pc := &blockedPrecomp{}
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
	// Capacity guesses (every node a gate of two fanins) keep the
	// appends below from regrowing on typical networks.
	pc.gates = make([]fastGate, 0, net.NumNodes())
	pc.fanins = make([]int32, 0, 2*net.NumNodes())
	for i := 0; i < net.NumNodes(); i++ {
		node := net.Node(logic.NodeID(i))
		if !node.Kind.IsGate() {
			continue
		}
		pc.gates = append(pc.gates, fastGate{
			dst: int32(i), fanOff: int32(len(pc.fanins)), nfan: int32(len(node.Fanins)), kind: node.Kind,
		})
		for _, f := range node.Fanins {
			pc.fanins = append(pc.fanins, int32(f))
		}
	}
	return pc
}

// runShardBlocked is the blocked kernel. It simulates `vectors` cycles
// in blocks of bw = blockWordsOf(cfg) 64-lane words: window base+j of
// the shard lives in word j of every node's block. Each window's inputs
// are drawn by packInputs on the shard's own *rand.Rand — the test
// oracle's generator path, so the block's words are by construction the
// packed form of the oracle's vectors — and every transition is counted
// by popcount into the shard's int64 totals. The counts, and so the
// Reports, equal the scalar oracle's for any (Seed, Shards, BlockWords)
// (TestBlockedMatchesScalarAndWideKernels). pc is built once per Run and
// shared read-only across shards.
//
// Gating: a gate whose fanin blocks all carry an unchanged flag is
// skipped (its stored words are provably the correct value), and
// skipped cells are still counted from their stored words — gating
// elides evaluation, never measurement. Every block makes one eval or
// skip decision per gate; the first block evaluates every gate.
//
// One pass serves every block: any bw from 1 to 8, and a tail shorter
// than bw windows or ending in a partial window. It loops over the live
// windows only — dead word slots keep the previous block's values, which
// is deterministic and invisible to the Report — and counts in separate
// passes after the gate walk.
func runShardBlocked(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, seed int64, vectors int) (*shardResult, error) {
	bw := blockWordsOf(cfg)
	net := b.Net
	numNodes := net.NumNodes()
	nIn := len(cfg.InputProbs)

	rng := rand.New(rand.NewSource(seed))

	// ws[id] is node id's block (a block of bw < 8 words uses its first
	// bw slots); origWords stages window j's packed inputs in row j.
	ws := make([][MaxBlockWords]uint64, numNodes)
	changed := make([]bool, numNodes)
	origWords := make([]uint64, MaxBlockWords*nIn)
	prevBit := make([]uint64, len(pc.inputNode))
	sr := newShardResult(b)
	var evals, skips int64

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
		if err := cfg.Budget.Poll(ctx); err != nil {
			return nil, err
		}
		nw := numWin - base
		if nw > bw {
			nw = bw
		}
		first := base == 0

		// Stage 1: draw the live windows in order, exactly as the scalar
		// oracle does.
		for j := 0; j < nw; j++ {
			packInputs(rng, cfg.InputProbs, origWords[j*nIn:(j+1)*nIn])
		}

		// Stage 2: phase apply — each block position copies its source
		// input's words with the inversion folded in as an XOR mask
		// (branch-free), diffing against the previous contents to seed
		// the gating flags. One PI may fan out to two positions after
		// phase separation, so this runs per position, not per input.
		// Only live words are written; dead slots keep the previous
		// block's values.
		for pos, id := range pc.inputNode {
			src := int(pc.srcIdx[pos])
			m := pc.invMask[pos]
			w := &ws[id]
			var d uint64
			for j := 0; j < nw; j++ {
				v := origWords[j*nIn+src] ^ m
				d |= w[j] ^ v
				w[j] = v
			}
			changed[id] = d != 0 || first
		}

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

		// Stage 3: gate-table walk, ascending by node. A gate is
		// evaluated into tmp from its first fanin's words, then
		// diff-stored.
		var tmp [MaxBlockWords]uint64
		for gi := range pc.gates {
			g := &pc.gates[gi]
			fans := pc.fanins[g.fanOff : g.fanOff+g.nfan]
			eval := first
			for i := 0; !eval && i < len(fans); i++ {
				eval = changed[fans[i]]
			}
			if !eval {
				skips++
				changed[g.dst] = false
				continue
			}
			evals++
			copy(tmp[:nw], ws[fans[0]][:nw])
			for _, f := range fans[1:] {
				wf := &ws[f]
				switch g.kind {
				case logic.KindAnd:
					for j := 0; j < nw; j++ {
						tmp[j] &= wf[j]
					}
				case logic.KindOr:
					for j := 0; j < nw; j++ {
						tmp[j] |= wf[j]
					}
				default: // KindXor
					for j := 0; j < nw; j++ {
						tmp[j] ^= wf[j]
					}
				}
			}
			if g.kind == logic.KindNot {
				for j := 0; j < nw; j++ {
					tmp[j] = ^tmp[j]
				}
			}
			dst := &ws[g.dst]
			var d uint64
			for j := 0; j < nw; j++ {
				d |= dst[j] ^ tmp[j]
				dst[j] = tmp[j]
			}
			changed[g.dst] = d != 0
		}

		// Stage 4: popcount the live windows into the shard totals —
		// cells, then input inverters, then negated outputs.
		for ci := range b.Cells {
			w := &ws[b.Cells[ci].Node]
			tot := 0
			for j := 0; j < nw; j++ {
				tot += bits.OnesCount64(w[j] & masks[j])
			}
			sr.cellTrans[ci] += int64(tot)
		}
		for _, pos := range p.invPos {
			w := &ws[pc.inputNode[pos]]
			carry := prevBit[pos]
			tot := 0
			for j := 0; j < nw; j++ {
				v := w[j]
				diff := (v ^ (v<<1 | carry)) & masks[j]
				if first && j == 0 {
					diff &^= 1
				}
				carry = (v >> uint(lanes[j]-1)) & 1
				tot += bits.OnesCount64(diff)
			}
			prevBit[pos] = carry
			sr.inputInvTrans[pos] += int64(tot)
		}
		for _, oi := range p.negOut {
			w := &ws[p.drivers[oi]]
			tot := 0
			for j := 0; j < nw; j++ {
				tot += bits.OnesCount64(w[j] & masks[j])
			}
			sr.outputInvTrans[oi] += int64(tot)
		}
	}
	sr.gateEvals = evals
	sr.gateSkips = skips
	return sr, nil
}
