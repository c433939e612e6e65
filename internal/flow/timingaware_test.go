package flow

import (
	"math"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
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

// TestTimedRowUnderAndPenalty runs the timing-aware objective the
// paper's conclusion proposes as future work: a nonzero gate-type
// penalty P_i on AND stacks (Lib.AndPenalty), the slow domino
// structures negative phases create, steers the MP search of the timed
// (Table 2) flow. The penalized row must not pick more AND cells for MP
// than the plain one.
func TestTimedRowUnderAndPenalty(t *testing.T) {
	plain, err := RunCircuitTimed(smallOrHeavy(), Config{SimVectors: 1024})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	lib := penalizedLibrary(0.4)
	taxed, err := RunCircuitTimed(smallOrHeavy(), Config{SimVectors: 1024, Lib: &lib})
	if err != nil {
		t.Fatalf("penalized: %v", err)
	}
	andCells := func(s *Synthesis) int {
		n := 0
		for i := range s.Block.Cells {
			if s.Block.Cells[i].Kind == logic.KindAnd {
				n++
			}
		}
		return n
	}
	// The penalty taxes AND stacks; ties keep the same assignment.
	if p, q := andCells(&plain.MP), andCells(&taxed.MP); q > p {
		t.Errorf("penalized MP has more AND cells (%d) than plain (%d)", q, p)
	}
	if plain.MP.SimPower <= 0 || taxed.MP.SimPower <= 0 {
		t.Error("missing measurements")
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
