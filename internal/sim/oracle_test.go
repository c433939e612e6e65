package sim

import (
	"context"
	"math/rand"

	"repro/internal/domino"
)

// runScalar is Run over the scalar oracle: the same shard sizing, seeds
// and merge, with every shard simulated by runShardScalar.
func runScalar(b *domino.Block, cfg Config) (*Report, error) {
	return run(b, cfg, runShardScalar)
}

// runShardScalar simulates `vectors` cycles one bool vector at a time
// with a dedicated rng seeded `seed`, checking ctx between windows so a
// sibling shard's failure aborts early. It is the reference oracle for
// the blocked kernel: it unpacks the same per-window input words
// (packInputs) lane by lane and increments the shard's counts directly.
// It keeps no gating counters, so KernelStats stay zero under it.
func runShardScalar(ctx context.Context, b *domino.Block, cfg Config, p *blockParams, _ *blockedPrecomp, seed int64, vectors int) (*shardResult, error) {
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
