package prob

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func TestLimitedDepthCatchesLocalReconvergence(t *testing.T) {
	// f = a·ā: Approximate gets 0.25, any depth >= 2 must get the exact 0.
	n := logic.New("reconv")
	a := n.AddInput("a")
	f := n.AddAnd(a, n.AddNot(a))
	n.MarkOutput("f", f)
	probs := Uniform(n, 0.5)
	ap := Approximate(n, probs)
	if !almost(ap[f], 0.25) {
		t.Fatalf("approximate = %v, want 0.25", ap[f])
	}
	ld, err := LimitedDepthBudget(n, probs, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ld[f] != 0 {
		t.Errorf("limited depth = %v, want exact 0", ld[f])
	}
}

func TestLimitedDepthZeroIsApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := randomReconvNet(rng, 6, 30)
	probs := Uniform(n, 0.5)
	ap := Approximate(n, probs)
	ld, err := LimitedDepthBudget(n, probs, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ap {
		if !almost(ap[i], ld[i]) {
			t.Fatalf("node %d: depth-0 %v != approximate %v", i, ld[i], ap[i])
		}
	}
}

func TestLimitedDepthConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := randomReconvNet(rng, 5, 25)
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = 0.2 + 0.6*rng.Float64()
		}
		exact, err := Exact(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		errAt := func(depth int) float64 {
			ld, err := LimitedDepthBudget(n, probs, depth, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for i := range exact {
				if d := math.Abs(exact[i] - ld[i]); d > worst {
					worst = d
				}
			}
			return worst
		}
		e1 := errAt(1)
		eBig := errAt(100)
		if eBig > 1e-9 {
			t.Fatalf("trial %d: unlimited depth not exact (err %v)", trial, eBig)
		}
		if e1 < -1e-12 {
			t.Fatalf("impossible")
		}
		// Depth-100 must never be worse than depth-1 on the worst node.
		if eBig > e1+1e-12 {
			t.Fatalf("trial %d: error grew with depth: %v -> %v", trial, e1, eBig)
		}
	}
}

func TestLimitedDepthFrontierCap(t *testing.T) {
	// A wide cone exceeding the frontier cap must fall back gracefully.
	n := logic.New("wide")
	var ins []logic.NodeID
	for i := 0; i < 24; i++ {
		ins = append(ins, n.AddInput(treeInputName(i)))
	}
	f := n.AddOr(ins...)
	n.MarkOutput("f", f)
	probs := Uniform(n, 0.5)
	ld, err := LimitedDepthBudget(n, probs, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ap := Approximate(n, probs)
	if !almost(ld[f], ap[f]) {
		t.Errorf("capped frontier should match approximate: %v vs %v", ld[f], ap[f])
	}
}

func randomReconvNet(rng *rand.Rand, numInputs, numGates int) *logic.Network {
	n := logic.New("reconv")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(treeInputName(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 2:
			ids = append(ids, n.AddOr(pick(), pick()))
		default:
			ids = append(ids, n.AddXor(pick(), pick()))
		}
	}
	n.MarkOutput("f", ids[len(ids)-1])
	return n
}

func BenchmarkLimitedDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	n := randomReconvNet(rng, 20, 800)
	probs := Uniform(n, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LimitedDepthBudget(n, probs, 4, 16, nil); err != nil {
			b.Fatal(err)
		}
	}
}
