package phase

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/prob"
	"repro/internal/verify"
)

// TestQuickApplyEquivalence drives phase.Apply with testing/quick over
// seeded random networks and assignments: the reconstruction (block +
// boundary inverters) must always equal the original function, and the
// block must always be inverter-free.
func TestQuickApplyEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNoXorNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(40), 1+rng.Intn(5))
		asg := make(Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		r, err := Apply(n, asg)
		if err != nil {
			return false
		}
		if r.Block.HasInverters() {
			return false
		}
		return verify.Check(n, r.Reconstructed()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickProperty41 verifies the paper's Property 4.1 on the block:
// flipping one output's phase complements the signal probability of
// every node in the non-shared part of its fanin cone. We check the
// strongest observable consequence: the block output driver's
// probability complements exactly.
func TestQuickProperty41(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNoXorNetwork(rng, 2+rng.Intn(4), 1+rng.Intn(25), 1+rng.Intn(3))
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		asg := make(Assignment, n.NumOutputs())
		flipped := asg.Clone()
		k := rng.Intn(len(flipped))
		flipped[k] = !flipped[k]

		pBase, err := outputProb(n, asg, k, probs)
		if err != nil {
			return false
		}
		pFlip, err := outputProb(n, flipped, k, probs)
		if err != nil {
			return false
		}
		diff := pFlip - (1 - pBase)
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// outputProb returns the exact signal probability of block output k's
// driver under the given assignment, computed over the original primary
// inputs (correlated rails).
func outputProb(n *logic.Network, asg Assignment, k int, probs []float64) (float64, error) {
	r, err := Apply(n, asg)
	if err != nil {
		return 0, err
	}
	blockProbs, err := prob.Exact(r.Block, r.BlockInputProbs(probs))
	if err != nil {
		return 0, err
	}
	// The blocks here are built from networks whose inverters feed from
	// distinct rails; prob.Exact over block inputs is exact as long as no
	// input appears in both polarities. Detect that case and fall back to
	// the literal-correlated engine.
	seen := map[int]int{}
	for _, bi := range r.Inputs {
		seen[bi.InputPos]++
	}
	for _, c := range seen {
		if c > 1 {
			return correlatedOutputProb(r, probs, k)
		}
	}
	return blockProbs[r.Block.Outputs()[k].Driver], nil
}

func correlatedOutputProb(r *Result, probs []float64, k int) (float64, error) {
	lits := make([]bdd.InputLit, len(r.Inputs))
	for pos, bi := range r.Inputs {
		lits[pos] = bdd.InputLit{Var: bi.InputPos, Neg: bi.Inverted}
	}
	nodeProbs, err := prob.ExactLits(bdd.New(len(probs)), r.Block, lits, probs)
	if err != nil {
		return 0, err
	}
	return nodeProbs[r.Block.Outputs()[k].Driver], nil
}
