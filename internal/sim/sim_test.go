package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
)

func figure5Network() *logic.Network {
	n := logic.New("fig5")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddOr(a, b)
	y := n.AddAnd(c, d)
	f := n.AddOr(n.AddNot(x), n.AddNot(y))
	g := n.AddOr(x, y)
	n.MarkOutput("f", f)
	n.MarkOutput("g", g)
	return n
}

func mapNet(t testing.TB, n *logic.Network, asg phase.Assignment) *domino.Block {
	t.Helper()
	r, err := phase.Apply(n, asg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunConvergesToEstimate(t *testing.T) {
	// The Monte-Carlo measurement must converge to the BDD-exact model
	// values — the simulator and estimator implement the same physics.
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	for _, asg := range []phase.Assignment{{true, false}, {false, true}, {false, false}, {true, true}} {
		blk := mapNet(t, n, asg)
		est, err := power.Estimate(blk, probs, power.Options{Method: power.Exact})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(blk, Config{Vectors: 200000, Seed: 1, InputProbs: probs})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(rep.Total-est.Total) / est.Total; rel > 0.05 {
			t.Errorf("asg %s: simulated %v vs estimated %v (rel err %.3f)", asg, rep.Total, est.Total, rel)
		}
		if math.Abs(rep.DominoPower-est.Domino)/est.Domino > 0.05 {
			t.Errorf("asg %s: domino component %v vs %v", asg, rep.DominoPower, est.Domino)
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	n := figure5Network()
	probs := prob.Uniform(n, 0.5)
	blk := mapNet(t, n, phase.Assignment{false, true})
	r1, err := Run(blk, Config{Vectors: 1000, Seed: 42, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(blk, Config{Vectors: 1000, Seed: 42, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total || r1.DominoTransitions != r2.DominoTransitions {
		t.Error("same seed produced different measurements")
	}
	r3, err := Run(blk, Config{Vectors: 1000, Seed: 43, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	if r1.DominoTransitions == r3.DominoTransitions {
		t.Error("different seeds produced identical transition counts (suspicious)")
	}
}

func TestPerCellFrequencyMatchesProbability(t *testing.T) {
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	blk := mapNet(t, n, phase.Assignment{false, true})
	rep, err := Run(blk, Config{Vectors: 200000, Seed: 7, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	est, err := power.Estimate(blk, probs, power.Options{Method: power.Exact})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range blk.Cells {
		sw := prob.DominoSwitching(est.NodeProbs[blk.Cells[ci].Node])
		if diff := math.Abs(rep.PerCellFreq[ci] - sw); diff > 0.01 {
			t.Errorf("cell %d: measured freq %v vs exact %v", ci, rep.PerCellFreq[ci], sw)
		}
	}
}

func TestExtremeProbabilities(t *testing.T) {
	// Left realization of Figure 5: block is X=a+b, Y=cd, X·Y, X+Y over
	// positive rails only.
	n := figure5Network()
	blk := mapNet(t, n, phase.Assignment{true, false})
	// All inputs pinned to 1: every cell evaluates high every cycle.
	rep, err := Run(blk, Config{Vectors: 100, Seed: 3, InputProbs: []float64{1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantTrans := int64(100 * blk.DominoCellCount())
	if rep.DominoTransitions != wantTrans {
		t.Errorf("transitions at p=1: %d, want %d", rep.DominoTransitions, wantTrans)
	}
	// All inputs pinned to 0: nothing ever discharges — zero power.
	rep0, err := Run(blk, Config{Vectors: 100, Seed: 3, InputProbs: []float64{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Total != 0 {
		t.Errorf("power at p=0: %v, want 0", rep0.Total)
	}
}

// TestTotalCIBracketsModel: the measured total must lie within a fixed
// relative distance of the exact model value. The bounds are the
// half-widths of the 95% intervals the simulator once reported for these
// runs (2.11% at 20,000 vectors, 0.665% at 200,000), rounded down; the
// fixed seed makes the check deterministic.
func TestTotalCIBracketsModel(t *testing.T) {
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	blk := mapNet(t, n, phase.Assignment{false, true})
	est, err := power.Estimate(blk, probs, power.Options{Method: power.Exact})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		vectors int
		relTol  float64
	}{{20000, 0.021}, {200000, 0.0066}} {
		rep, err := Run(blk, Config{Vectors: c.vectors, Seed: 5, InputProbs: probs})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(rep.Total-est.Total) / est.Total; rel > c.relTol {
			t.Errorf("%d vectors: total %v vs model %v (rel err %.4f > %.4f)",
				c.vectors, rep.Total, est.Total, rel, c.relTol)
		}
	}
}

func TestRunRejectsBadProbs(t *testing.T) {
	n := figure5Network()
	blk := mapNet(t, n, phase.Assignment{false, false})
	if _, err := Run(blk, Config{InputProbs: []float64{0.5}}); err == nil {
		t.Error("Run accepted wrong-length probs")
	}
}

func TestRunOnRandomNetworksMatchesEstimateLoosely(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := randomNet(rng, 4+rng.Intn(4), 15+rng.Intn(25), 2)
		asg := make(phase.Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		blk := mapNet(t, n, asg)
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = 0.1 + 0.8*rng.Float64()
		}
		est, err := power.Estimate(blk, probs, power.Options{Method: power.Exact})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(blk, Config{Vectors: 60000, Seed: int64(trial), InputProbs: probs})
		if err != nil {
			t.Fatal(err)
		}
		if est.Total == 0 {
			if rep.Total != 0 {
				t.Errorf("trial %d: estimate 0 but sim %v", trial, rep.Total)
			}
			continue
		}
		if rel := math.Abs(rep.Total-est.Total) / est.Total; rel > 0.08 {
			t.Errorf("trial %d: sim %v vs est %v (rel %.3f)", trial, rep.Total, est.Total, rel)
		}
	}
}

func randomNet(rng *rand.Rand, numInputs, numGates, numOutputs int) *logic.Network {
	n := logic.New("rand")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(sname(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 2:
			ids = append(ids, n.AddOr(pick(), pick(), pick()))
		default:
			ids = append(ids, n.AddOr(pick(), pick()))
		}
	}
	for i := 0; i < numOutputs; i++ {
		n.MarkOutput(sname(100+i), ids[len(ids)-1-i])
	}
	return n
}

func sname(i int) string {
	return "v" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}

func BenchmarkRun(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	n := randomNet(rng, 20, 800, 8)
	asg := make(phase.Assignment, n.NumOutputs())
	r, err := phase.Apply(n, asg)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	probs := prob.Uniform(n, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(blk, Config{Vectors: 1024, Seed: 5, InputProbs: probs}); err != nil {
			b.Fatal(err)
		}
	}
}
