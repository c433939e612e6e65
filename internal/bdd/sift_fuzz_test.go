package bdd

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/budget"
)

// FuzzSiftPreservesFunctions differentially checks in-place sifting
// against the unsifted build. The input chooses a randomNetwork (seed)
// with up to three disjoint blocks added, so that non-interacting swaps
// occur, under a random order; a swap sequence (each byte a level), or
// a full Reorder when there is none; and a node cap (0 for none) set
// after the build. A nonzero peak byte replaces the cap of a full
// Reorder with one of the transport peaks the swap-transport oracle
// records on the same build — peak/2 picks the peak, and an odd byte
// takes one below it — and the Reorder must then trip where the oracle
// trips, or complete where it completes with its order and live count.
// A sequence that trips the cap must fail with ErrBDDNodes, and the
// manager is dropped. Otherwise the unique table keeps its invariants,
// every protected node still computes its gate's function, the live
// count equals a rebuild under the final order, and every node's
// probability stays within 1e-12 of the unsifted build's.
func FuzzSiftPreservesFunctions(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte(nil), uint16(0), uint8(0))
	f.Add(int64(2), uint8(3), []byte{0, 3, 5, 1, 9, 2, 2, 7}, uint16(0), uint8(0))
	f.Add(int64(3), uint8(1), []byte(nil), uint16(60), uint8(0))
	f.Add(int64(4), uint8(2), []byte(nil), uint16(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, blocks uint8, swaps []byte, nodeCap uint16, peak uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng, 3+rng.Intn(6), 5+rng.Intn(40))
		addBlocks(n, rng, int(blocks%4), 2+rng.Intn(3), 2+rng.Intn(6))
		order := rng.Perm(n.NumInputs())
		build := func() *NetworkBDDs {
			nb, err := BuildNetwork(NewWithOrder(n.NumInputs(), order), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			return nb
		}
		nb := build()
		m := nb.Manager
		probs := make([]float64, m.NumVars())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		unsifted := m.ProbabilityMany(nb.NodeRefs, probs)
		limit := int(nodeCap)
		var oracle *Manager
		var oracleErr error
		if peak > 0 && len(swaps) == 0 {
			if peaks, _ := transportPeaks(build().Manager); len(peaks) > 0 {
				limit = peaks[int(peak/2)%len(peaks)] - int(peak%2)
				oracle = build().Manager
				oracle.SetBudget(budget.New(limit, 0))
				_, oracleErr = oracle.reorderWith(func(v int) { oracle.siftVarBySwaps(v, nil) })
			}
		}
		if limit > 0 {
			m.SetBudget(budget.New(limit, 0))
		}
		var err error
		if len(swaps) == 0 {
			err = m.Reorder()
		}
		for _, l := range swaps {
			if err = m.SwapLevels(int(l) % (m.NumVars() - 1)); err != nil {
				break
			}
		}
		if oracle != nil && (err == nil) != (oracleErr == nil) {
			t.Fatalf("cap %d: Reorder err = %v, swap-transport oracle err = %v", limit, err, oracleErr)
		}
		if err != nil {
			if limit == 0 || !errors.Is(err, budget.ErrBDDNodes) {
				t.Fatalf("cap %d: %v", limit, err)
			}
			return
		}
		if oracle != nil && (!slices.Equal(m.Order(), oracle.Order()) || m.LiveNodes() != oracle.LiveNodes()) {
			t.Fatalf("cap %d: order %v with %d live, swap-transport oracle %v with %d",
				limit, m.Order(), m.LiveNodes(), oracle.Order(), oracle.LiveNodes())
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
