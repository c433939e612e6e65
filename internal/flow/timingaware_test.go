package flow

import (
	"math"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
)

func smallOrHeavy() gen.NamedCircuit {
	return gen.NamedCircuit{
		Name: "orheavy", Desc: "Test",
		Net: gen.Generate(gen.Params{Name: "orheavy", Inputs: 12, Outputs: 4, Gates: 70, Seed: 0x7A11, OrProb: 0.8}),
	}
}

func TestRunCircuitTimingAware(t *testing.T) {
	res, err := RunCircuitTimingAware(smallOrHeavy(), Config{SimVectors: 1024}, 0.4)
	if err != nil {
		t.Fatalf("RunCircuitTimingAware: %v", err)
	}
	if res.Plain == nil || res.Penalized == nil {
		t.Fatal("missing rows")
	}
	// The penalty must not *increase* AND-cell count in the chosen MP
	// synthesis (it taxes AND stacks; ties keep the same assignment).
	if res.PenalizedAndCells > res.PlainAndCells {
		t.Errorf("penalized MP has more AND cells (%d) than plain (%d)",
			res.PenalizedAndCells, res.PlainAndCells)
	}
	if res.Plain.MP.SimPower <= 0 || res.Penalized.MP.SimPower <= 0 {
		t.Error("missing measurements")
	}
}

func TestRunCircuitTimingAwareRejectsZeroPenalty(t *testing.T) {
	if _, err := RunCircuitTimingAware(smallOrHeavy(), Config{SimVectors: 256}, 0); err == nil {
		t.Error("accepted zero penalty")
	}
}

// penalizedLibrary is the default library with the AND-stack penalty
// P_i set: under it, power.Estimator and power.NewConeTable score the
// timing-aware MP objective.
func penalizedLibrary(andPenalty float64) domino.Library {
	lib := domino.DefaultLibrary()
	lib.AndPenalty = andPenalty
	return lib
}

func TestPenalizedEvaluatorTaxesAnds(t *testing.T) {
	c := smallOrHeavy()
	net := Prepare(c.Net)
	probs := prob.Uniform(net, 0.5)
	plain := power.NewEstimator(penalizedLibrary(1e-9), probs, power.Options{}).Evaluate
	taxed := power.NewEstimator(penalizedLibrary(0.5), probs, power.Options{}).Evaluate
	// An all-negative assignment of an OR-heavy circuit is AND-heavy; the
	// taxed evaluator must score it strictly worse.
	asg := make(phase.Assignment, net.NumOutputs())
	for i := range asg {
		asg[i] = true
	}
	res, err := phase.Apply(net, asg)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := plain(res)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := taxed(res)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= p0 {
		t.Errorf("taxed evaluator (%v) not above plain (%v) on AND-heavy block", p1, p0)
	}
}

// TestPenalizedScorerMatchesEvaluator pins the cone-table counterpart:
// for every assignment of the OR-heavy circuit, the penalized scorer
// reproduces the penalized evaluator's score (the AND-stack tax is
// cached in the table's 1+P_i terms), and the tax ordering carries over.
func TestPenalizedScorerMatchesEvaluator(t *testing.T) {
	c := smallOrHeavy()
	net := Prepare(c.Net)
	probs := prob.Uniform(net, 0.5)
	const tax = 0.5
	eval := power.NewEstimator(penalizedLibrary(tax), probs, power.Options{}).Evaluate
	scorer, err := power.NewConeTable(net, penalizedLibrary(tax), probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := net.NumOutputs()
	asg := make(phase.Assignment, k)
	for mask := 0; mask < 1<<uint(k); mask++ {
		for i := 0; i < k; i++ {
			asg[i] = mask&(1<<uint(i)) != 0
		}
		got, err := scorer.ScoreAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := phase.Apply(net, asg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval(res)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("mask %d: penalized scorer %v != evaluator %v", mask, got, want)
		}
	}
}
