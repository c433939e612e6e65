package sim

import (
	"context"
	"math/bits"

	"repro/internal/domino"
	"repro/internal/logic"
)

// defaultBlockWords is the block size the blocked kernel uses when
// Config.BlockWords is zero: 8 words × 64 lanes = 512 packed cycles per
// evaluation step, the largest block logic.EvalWideBlocked supports.
const defaultBlockWords = logic.MaxBlockWords

// blockWordsOf resolves Config.BlockWords to a legal block size.
func blockWordsOf(cfg Config) int {
	bw := cfg.BlockWords
	if bw == 0 {
		bw = defaultBlockWords
	}
	if bw < 1 {
		bw = 1
	}
	if bw > logic.MaxBlockWords {
		bw = logic.MaxBlockWords
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

// runShardBlocked dispatches between the two blocked implementations:
// the hand-unrolled 8-word fast path (runShardBlocked8) for the default
// block size in batch-means mode, and the generic path below for other
// block sizes and the per-cycle CI fallback (plus the never-expected
// case of a cell list out of node order, which the fused fast path
// cannot count). Both are byte-identical to each other and to the
// scalar oracle (TestBlockedFastMatchesGeneric,
// TestBlockedMatchesScalarAndWideKernels), including the gating
// counters. pc is built once per Run and shared read-only across
// shards.
func runShardBlocked(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, pc *blockedPrecomp, perCycleCI bool, seed int64, vectors int) (*shardResult, error) {
	if blockWordsOf(cfg) == fastBlockWords && !perCycleCI && pc.fastOK {
		return runShardBlocked8(ctx, b, cfg, p, pc, seed, vectors)
	}
	return runShardBlockedGeneric(ctx, b, cfg, p, perCycleCI, seed, vectors)
}

// runShardBlockedGeneric simulates `vectors` cycles in blocks of bw
// 64-lane words: window base+j of the shard lives in word j of a
// bw-word block per net (logic.EvalWideBlocked layout), evaluated with
// activity gating (logic.BlockedEval). Inputs are drawn window-major
// with the per-input bernoulliPlans on the devirtualized generator
// clone, which consumes the exact rng stream of packInputs — so the
// block's words are the packed form of the scalar oracle's vectors, and
// every count below folds into the shard totals in the same
// order fold uses (per window: cells ascending, then input inverters,
// then negated outputs). That makes the blocked kernel's Reports
// byte-identical to the scalar kernel's for any (Seed, Shards), with or
// without gating.
//
// A tail block shorter than bw words only draws and counts its live
// windows; the dead word slots keep the previous block's values, which
// is deterministic and invisible to the Report. With perCycleCI the
// per-window event words scatter weights into a per-lane power vector
// (cells, then inverters, then outputs — the scalar oracle's
// within-cycle order), one Welford sample per lane.
func runShardBlockedGeneric(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, perCycleCI bool, seed int64, vectors int) (*shardResult, error) {
	net := b.Net
	bw := blockWordsOf(cfg)
	rng := newRngClone(seed)
	plans := makeBernoulliPlans(cfg.InputProbs)

	origWords := make([]uint64, len(cfg.InputProbs)*bw)
	blockWords := make([]uint64, net.NumInputs()*bw)
	invDiff := make([]uint64, net.NumInputs()*bw)
	prevBit := make([]uint64, net.NumInputs())
	ev := net.NewBlockedEval(bw)
	sr := newShardResult(b)

	var sums [logic.MaxBlockWords]float64
	var masks [logic.MaxBlockWords]uint64
	var laneCnt [logic.MaxBlockWords]int
	var lanePower [simWindow]float64
	scatter := func(word uint64, weight float64) {
		for t := word; t != 0; t &= t - 1 {
			lanePower[bits.TrailingZeros64(t)] += weight
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
		for j := 0; j < nw; j++ {
			lanes := vectors - (base+j)*simWindow
			if lanes > simWindow {
				lanes = simWindow
			}
			laneCnt[j] = lanes
			masks[j] = ^uint64(0) >> (64 - uint(lanes))
		}

		// Draw window-major, inputs in order within each window — the
		// exact packInputs consumption order, bw windows at a time.
		for j := 0; j < nw; j++ {
			for i := range plans {
				origWords[i*bw+j] = plans[i].draw(rng)
			}
		}
		for pos, bi := range b.Phase.Inputs {
			src := origWords[bi.InputPos*bw:]
			dst := blockWords[pos*bw:]
			if bi.Inverted {
				for j := 0; j < nw; j++ {
					dst[j] = ^src[j]
				}
			} else {
				for j := 0; j < nw; j++ {
					dst[j] = src[j]
				}
			}
		}

		values := ev.Eval(blockWords)

		// Input-inverter toggle words: lane k vs lane k−1 via shift,
		// carrying the last live lane across words and blocks; bit 0 of
		// the shard's first window has no history.
		for _, pos := range p.invPos {
			w := blockWords[pos*bw:]
			d := invDiff[pos*bw:]
			carry := prevBit[pos]
			for j := 0; j < nw; j++ {
				v := w[j]
				diff := (v ^ (v<<1 | carry)) & masks[j]
				if base == 0 && j == 0 {
					diff &^= 1
				}
				d[j] = diff
				carry = (v >> uint(laneCnt[j]-1)) & 1
			}
			prevBit[pos] = carry
		}

		if !perCycleCI {
			// Fused counting: one pass per event source accumulates the
			// integer totals and all nw per-window weighted sums at once.
			// For any fixed window j the float adds arrive cells → input
			// inverters → negated outputs, each index ascending and
			// skipping zero counts — fold's exact order — so the batch
			// means match the other kernels bit for bit. Interleaving nw
			// independent sums is also what hides the FP add latency the
			// one-window fold is bound by.
			for j := 0; j < nw; j++ {
				sums[j] = 0
			}
			for ci := range b.Cells {
				w := values[int(b.Cells[ci].Node)*bw:]
				var tot int64
				for j := 0; j < nw; j++ {
					if v := w[j] & masks[j]; v != 0 {
						c := bits.OnesCount64(v)
						sums[j] += p.weights[ci] * float64(c)
						tot += int64(c)
					}
				}
				sr.cellTrans[ci] += tot
			}
			for _, pos := range p.invPos {
				d := invDiff[pos*bw:]
				var tot int64
				for j := 0; j < nw; j++ {
					if v := d[j]; v != 0 {
						c := bits.OnesCount64(v)
						sums[j] += p.invLoad[pos] * float64(c)
						tot += int64(c)
					}
				}
				sr.inputInvTrans[pos] += tot
			}
			for _, oi := range p.negOut {
				w := values[int(p.drivers[oi])*bw:]
				var tot int64
				for j := 0; j < nw; j++ {
					if v := w[j] & masks[j]; v != 0 {
						c := bits.OnesCount64(v)
						sums[j] += p.outCap * float64(c)
						tot += int64(c)
					}
				}
				sr.outputInvTrans[oi] += tot
			}
			for j := 0; j < nw; j++ {
				if laneCnt[j] == simWindow {
					sr.perCycle.Add(sums[j] / float64(simWindow))
				}
			}
		} else {
			// Per-cycle CI mode (shards under two windows): scatter each
			// window's event words into per-lane power, one word at a time.
			for j := 0; j < nw; j++ {
				mask := masks[j]
				for k := range lanePower {
					lanePower[k] = 0
				}
				for ci := range b.Cells {
					if v := values[int(b.Cells[ci].Node)*bw+j] & mask; v != 0 {
						sr.cellTrans[ci] += int64(bits.OnesCount64(v))
						scatter(v, p.weights[ci])
					}
				}
				for _, pos := range p.invPos {
					if v := invDiff[pos*bw+j]; v != 0 {
						sr.inputInvTrans[pos] += int64(bits.OnesCount64(v))
						scatter(v, p.invLoad[pos])
					}
				}
				for _, oi := range p.negOut {
					if v := values[int(p.drivers[oi])*bw+j] & mask; v != 0 {
						sr.outputInvTrans[oi] += int64(bits.OnesCount64(v))
						scatter(v, p.outCap)
					}
				}
				for k := 0; k < laneCnt[j]; k++ {
					sr.perCycle.Add(lanePower[k])
				}
			}
		}
	}
	sr.gateEvals = ev.GateEvals()
	sr.gateSkips = ev.GateSkips()
	return sr, nil
}
