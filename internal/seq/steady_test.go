package seq_test

import (
	"math"
	"testing"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/power"
	"repro/internal/prob"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

// steadyByRebuild is SteadyStateProbs's fixed point with each iteration's
// node probabilities taken from a fresh evaluator — under the exact
// engine, a fresh BDD build per iteration: the oracle the build-once
// evaluator is checked against. It returns the block inputs' and the
// nodes' final probabilities and the iterations it ran.
func steadyByRebuild(t *testing.T, c *seq.Circuit, opts seq.SteadyOptions) ([]float64, []float64, int) {
	t.Helper()
	p, err := c.Partition(opts.Cut)
	if err != nil {
		t.Fatal(err)
	}
	inProbs := make([]float64, p.Block.NumInputs())
	ffProb := make(map[int]float64)
	for pos, in := range p.Inputs {
		if in.FF >= 0 {
			inProbs[pos], ffProb[in.FF] = 0.5, 0.5
		} else {
			inProbs[pos] = opts.InputProbs[in.OrigInput]
		}
	}
	var nodeProbs []float64
	it := 0
	for it < seq.SteadyIterations {
		it++
		if nodeProbs, err = power.NodeProbs(p.Block, opts.Est)(inProbs); err != nil {
			t.Fatal(err)
		}
		delta := 0.0
		for i, ff := range opts.Cut {
			newP := nodeProbs[p.Block.Outputs()[p.NextState[i]].Driver]
			delta = math.Max(delta, math.Abs(newP-ffProb[ff]))
			ffProb[ff] = newP
		}
		for pos, in := range p.Inputs {
			if in.FF >= 0 {
				inProbs[pos] = ffProb[in.FF]
			}
		}
		if delta < seq.SteadyTolerance {
			break
		}
	}
	return inProbs, nodeProbs, it
}

// TestSteadyStateBuildsOnce: under the exact engine the steady state
// builds its block's BDDs once and re-evaluates them each iteration, and
// its probabilities equal a rebuild per iteration bit for bit — without
// reordering, and with auto-reordering under a node cap at which the
// block's build sifts itself.
func TestSteadyStateBuildsOnce(t *testing.T) {
	const nodeCap = 100
	c, err := gen.Sequential(gen.SeqSet(gen.DefaultSeqFFs, gen.DefaultSeqCount)[2])
	if err != nil {
		t.Fatal(err)
	}
	cut := c.Cut(sgraph.DefaultOptions())
	p, err := c.Partition(cut)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewWithOrder(p.Block.NumInputs(), order.ReverseTopological(p.Block))
	m.SetBudget(budget.New(nodeCap, 0))
	m.SetAutoReorder(true)
	if _, err := bdd.BuildNetwork(m, p.Block, nil); err != nil || m.Reorders() == 0 {
		t.Fatalf("setup: the block's build under a %d-node cap made %d reorders (err %v), want some", nodeCap, m.Reorders(), err)
	}
	for _, reorder := range []bool{false, true} {
		est := func() power.Options {
			o := power.Options{Method: power.Exact, Reorder: reorder}
			if reorder {
				o.Budget = budget.New(nodeCap, 0)
			}
			return o
		}
		inputProbs := prob.Uniform(c.Comb, 0.3)
		_, gotIn, gotNodes, err := c.SteadyStateProbs(seq.SteadyOptions{InputProbs: inputProbs, Cut: cut, Est: est()})
		if err != nil {
			t.Fatal(err)
		}
		wantIn, wantNodes, iters := steadyByRebuild(t, c, seq.SteadyOptions{InputProbs: inputProbs, Cut: cut, Est: est()})
		if iters < 2 {
			t.Fatalf("reorder %v: the fixed point ran %d iterations, want several", reorder, iters)
		}
		for _, cmp := range []struct {
			name      string
			got, want []float64
		}{{"block input", gotIn, wantIn}, {"node", gotNodes, wantNodes}} {
			if len(cmp.got) != len(cmp.want) {
				t.Fatalf("reorder %v: %d %s probabilities, oracle %d", reorder, len(cmp.got), cmp.name, len(cmp.want))
			}
			for i := range cmp.got {
				if math.Float64bits(cmp.got[i]) != math.Float64bits(cmp.want[i]) {
					t.Fatalf("reorder %v: %s %d probability %v, rebuild per iteration %v", reorder, cmp.name, i, cmp.got[i], cmp.want[i])
				}
			}
		}
	}
}
