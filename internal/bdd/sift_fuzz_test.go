package bdd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/budget"
)

// FuzzSiftPreservesFunctions differentially checks in-place sifting
// against the unsifted build. The input chooses a randomNetwork (seed)
// with up to three disjoint blocks added, so that non-interacting swaps
// occur, under a random order; a swap sequence (each byte a level), or
// a full Reorder when there is none; and a node cap (0 for none) set
// after the build. A sequence that trips the cap must fail with
// ErrBDDNodes, and the manager is dropped. Otherwise the unique table
// keeps its invariants, every protected node still computes its gate's
// function, the live count equals a rebuild under the final order, and
// every node's probability stays within 1e-12 of the unsifted build's.
func FuzzSiftPreservesFunctions(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte(nil), uint16(0))
	f.Add(int64(2), uint8(3), []byte{0, 3, 5, 1, 9, 2, 2, 7}, uint16(0))
	f.Add(int64(3), uint8(1), []byte(nil), uint16(60))
	f.Fuzz(func(t *testing.T, seed int64, blocks uint8, swaps []byte, nodeCap uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 3+rng.Intn(6), 5+rng.Intn(40))
		addBlocks(n, rng, int(blocks%4), 2+rng.Intn(3), 2+rng.Intn(6))
		nb, err := BuildNetwork(NewWithOrder(n.NumInputs(), rng.Perm(n.NumInputs())), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := nb.Manager
		probs := make([]float64, m.NumVars())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		unsifted := m.ProbabilityMany(nb.NodeRefs, probs)
		if nodeCap > 0 {
			m.SetBudget(budget.New(int(nodeCap), 0))
		}
		if len(swaps) == 0 {
			err = m.Reorder()
		}
		for _, l := range swaps {
			if err = m.SwapLevels(int(l) % (m.NumVars() - 1)); err != nil {
				break
			}
		}
		if err != nil {
			if nodeCap == 0 || !errors.Is(err, budget.ErrBDDNodes) {
				t.Fatalf("cap %d: %v", nodeCap, err)
			}
			return
		}
		checkUniqueTable(t, m)
		checkAgainstNetwork(t, n, nb, rng, 16)
		if got, want := m.LiveNodes(), CountUnderOrder(m, nb.NodeRefs, m.Order()); got != want {
			t.Fatalf("LiveNodes = %d, rebuild under the final order = %d", got, want)
		}
		for i, p := range m.ProbabilityMany(nb.NodeRefs, probs) {
			if math.Abs(p-unsifted[i]) > 1e-12 {
				t.Fatalf("node %d: P = %v after sifting, %v unsifted", i, p, unsifted[i])
			}
		}
	})
}
