package phase

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/prob"
)

// switchingEvaluator builds the Figure 5 total-switching objective with
// exact probabilities, used as the power measure in these tests.
func switchingEvaluator(inputProbs []float64) Evaluator {
	return func(r *Result) (float64, error) {
		blockProbs, err := prob.Exact(r.Block, r.BlockInputProbs(inputProbs), nil)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for i := 0; i < r.Block.NumNodes(); i++ {
			k := r.Block.Kind(logic.NodeID(i))
			if k.IsGate() && k != logic.KindBuf {
				total += prob.DominoSwitching(blockProbs[i])
			}
		}
		for _, bi := range r.Inputs {
			if bi.Inverted {
				total += prob.BoundaryInputInverterSwitching(inputProbs[bi.InputPos])
			}
		}
		for i, bo := range r.Outputs {
			if bo.Negated {
				total += prob.BoundaryOutputInverterSwitching(blockProbs[r.Block.Outputs()[i].Driver])
			}
		}
		return total, nil
	}
}

func TestExhaustiveFindsFigure5Optimum(t *testing.T) {
	// With p(inputs)=0.9 the right-hand realization of Figure 5 (f
	// positive, g negative) is the 2-output optimum.
	n := figure5Network()
	eval := switchingEvaluator(prob.Uniform(n, 0.9))
	asg, res, score, err := Search(n, SearchOptions{Strategy: StrategyExhaustive, Eval: eval})
	if err != nil {
		t.Fatalf("exhaustive Search: %v", err)
	}
	if asg[0] != false || asg[1] != true {
		t.Errorf("optimum assignment = %s, want +- (f positive, g negative)", asg)
	}
	if !almost(score, 1.1219) {
		t.Errorf("optimum switching = %v, want 1.1219", score)
	}
	if res == nil || res.Block.GateCount() != 4 {
		t.Error("optimum result malformed")
	}
}

// TestExhaustiveRefusesWideInterfaces: an Eval-only objective pays a
// full Apply + eval per mask, so its exhaustive walk is refused past 20
// outputs — under StrategyExhaustive and under StrategyAuto with a
// raised ExhaustiveLimit alike.
func TestExhaustiveRefusesWideInterfaces(t *testing.T) {
	n := logic.New("wide")
	a := n.AddInput("a")
	for i := 0; i < 21; i++ {
		n.MarkOutput(nameFor("o", i), n.AddBuf(a))
	}
	for _, opts := range []SearchOptions{
		{Strategy: StrategyExhaustive, Eval: AreaEvaluator},
		{ExhaustiveLimit: 30, Eval: AreaEvaluator},
	} {
		_, _, _, err := Search(n, opts)
		if err == nil || !strings.Contains(err.Error(), "infeasible") {
			t.Errorf("%v search accepted 21 outputs: err = %v", opts.Strategy, err)
		}
	}
}

func TestMinAreaMatchesExhaustiveOnSmallCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := randomNoXorNetwork(rng, 3+rng.Intn(4), 5+rng.Intn(25), 2+rng.Intn(3))
		_, exhScore, err := AscendingScan(n, SearchOptions{})
		if err != nil {
			t.Fatalf("AscendingScan: %v", err)
		}
		_, _, maScore, err := MinArea(n, SearchOptions{})
		if err != nil {
			t.Fatalf("MinArea: %v", err)
		}
		if maScore != exhScore {
			t.Errorf("trial %d: MinArea %v != exhaustive %v", trial, maScore, exhScore)
		}
	}
}

func TestMinAreaGreedyPath(t *testing.T) {
	// Force the greedy path with a low exhaustive limit and check the
	// result is a valid synthesis no worse than all-positive.
	rng := rand.New(rand.NewSource(47))
	n := randomNoXorNetwork(rng, 6, 40, 4)
	allPos, err := Apply(n, AllPositive(4))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := AreaEvaluator(allPos)
	asg, res, score, err := MinArea(n, SearchOptions{ExhaustiveLimit: 1, Restarts: 2, Seed: 7})
	if err != nil {
		t.Fatalf("MinArea greedy: %v", err)
	}
	if score > base {
		t.Errorf("greedy result %v worse than all-positive %v", score, base)
	}
	eq, err := logic.Equivalent(n, res.Reconstructed())
	if err != nil || !eq {
		t.Errorf("greedy MinArea broke function (asg %s): %v %v", asg, eq, err)
	}
}

func TestMinPowerImprovesOrMatchesInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := randomNoXorNetwork(rng, 3+rng.Intn(4), 10+rng.Intn(30), 2+rng.Intn(4))
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = 0.1 + 0.8*rng.Float64()
		}
		eval := switchingEvaluator(probs)
		initial := AllPositive(n.NumOutputs())
		initRes, err := Apply(n, initial)
		if err != nil {
			t.Fatal(err)
		}
		initPower, err := eval(initRes)
		if err != nil {
			t.Fatal(err)
		}
		asg, res, power, trace, err := MinPower(n, PowerOptions{
			InputProbs: probs,
			Evaluate:   eval,
		})
		if err != nil {
			t.Fatalf("trial %d: MinPower: %v", trial, err)
		}
		if power > initPower+1e-12 {
			t.Errorf("trial %d: MinPower %v worse than initial %v", trial, power, initPower)
		}
		eq, err := logic.Equivalent(n, res.Reconstructed())
		if err != nil || !eq {
			t.Errorf("trial %d: MinPower broke function (asg %s): %v %v", trial, asg, eq, err)
		}
		// Every committed step must have strictly decreased power.
		last := initPower
		for _, s := range trace {
			if s.Committed {
				if s.Power >= last {
					t.Errorf("trial %d: committed step did not decrease power: %v -> %v", trial, last, s.Power)
				}
				last = s.Power
			}
		}
	}
}

func TestMinPowerFindsFigure5Optimum(t *testing.T) {
	// With only two outputs the pairwise heuristic degenerates to trying
	// the best K combination; on the Figure 5 example it must reach the
	// right-hand realization.
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	asg, _, power, trace, err := MinPower(n, PowerOptions{
		InputProbs: probs,
		Evaluate:   switchingEvaluator(probs),
	})
	if err != nil {
		t.Fatalf("MinPower: %v", err)
	}
	if asg[0] != false || asg[1] != true {
		t.Errorf("MinPower assignment = %s, want +-", asg)
	}
	if !almost(power, 1.1219) {
		t.Errorf("MinPower power = %v, want 1.1219", power)
	}
	if len(trace) == 0 {
		t.Error("empty trace")
	}
}

func TestMinPowerRespectsInitialAssignment(t *testing.T) {
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	initial := Assignment{true, true}
	_, _, _, _, err := MinPower(n, PowerOptions{
		InputProbs: probs,
		Evaluate:   switchingEvaluator(probs),
		Initial:    initial,
	})
	if err != nil {
		t.Fatalf("MinPower: %v", err)
	}
	if initial[0] != true || initial[1] != true {
		t.Error("MinPower mutated the caller's initial assignment")
	}
}

func TestMinPowerSingleOutput(t *testing.T) {
	n := logic.New("one")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.MarkOutput("f", n.AddAnd(a, b))
	probs := prob.Uniform(n, 0.5)
	asg, _, _, trace, err := MinPower(n, PowerOptions{
		InputProbs: probs,
		Evaluate:   switchingEvaluator(probs),
	})
	if err != nil {
		t.Fatalf("MinPower: %v", err)
	}
	if len(asg) != 1 || len(trace) != 0 {
		t.Errorf("single output: asg=%v trace=%v", asg, trace)
	}
}

func TestMinPowerMaxPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := randomNoXorNetwork(rng, 5, 30, 4)
	probs := prob.Uniform(n, 0.5)
	eval := switchingEvaluator(probs)
	_, _, capped, traceCapped, err := MinPower(n, PowerOptions{
		InputProbs: probs, Evaluate: eval, MaxPairs: 2,
	})
	if err != nil {
		t.Fatalf("MinPower capped: %v", err)
	}
	if len(traceCapped) > 2 {
		t.Errorf("MaxPairs=2 but %d steps traced", len(traceCapped))
	}
	_, _, full, _, err := MinPower(n, PowerOptions{InputProbs: probs, Evaluate: eval})
	if err != nil {
		t.Fatalf("MinPower full: %v", err)
	}
	if full > capped+1e-12 {
		t.Errorf("full search (%v) worse than capped (%v)", full, capped)
	}
}

func TestConeStatsCostFunction(t *testing.T) {
	// Hand-check the union statistics and K on a tiny network.
	n := logic.New("k")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.MarkOutput("f", n.AddBuf(a))
	n.MarkOutput("g", n.AddAnd(a, b))
	st, err := newUnionStats(n, []float64{0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Union outputs: 0 = f+, 1 = g+, 2 = f-, 3 = g-.
	// f+: just input a (p=.9) -> |D|=1, A=.9.
	// g+: a, b, and-gate -> |D|=3, A=(0.9+0.5+0.45)/3.
	// f-: just a_bar (p=.1) -> |D|=1, A=.1.
	// g-: a_bar, b_bar, or-gate -> |D|=3, A=(0.1+0.5+0.55)/3.
	if want := []int{1, 3, 1, 3}; !reflect.DeepEqual(st.size, want) {
		t.Fatalf("cone sizes = %v, want %v", st.size, want)
	}
	wantAg := (0.9 + 0.5 + 0.45) / 3
	wantAgNeg := (0.1 + 0.5 + 0.55) / 3
	for u, want := range []float64{0.9, wantAg, 0.1, wantAgNeg} {
		if !almost(st.avg[u], want) {
			t.Errorf("A of union output %d = %v, want %v", u, st.avg[u], want)
		}
	}
	// Overlaps: f+ {a} and g+ {a,b,and} share a: 1/(1+3)=0.25; f+ and
	// g- share nothing; f- {a_bar} and g- share a_bar: 0.25.
	for _, c := range []struct {
		ui, uj int
		want   float64
	}{{0, 1, 0.25}, {0, 3, 0}, {2, 3, 0.25}, {2, 1, 0}} {
		if o := logic.ConeOverlap(st.cones[c.ui], st.cones[c.uj]); !almost(o, c.want) {
			t.Errorf("O(%d,%d) = %v, want %v", c.ui, c.uj, o, c.want)
		}
	}
	// K(i+,j+) = 1*.9 + 3*Ag + .5*.25*(.9+Ag)
	o := 0.25
	want := 0.9 + 3*wantAg + 0.125*(0.9+wantAg)
	if got := st.kCost(0, 1, RetainRetain, o); !almost(got, want) {
		t.Errorf("K(+,+) = %v, want %v", got, want)
	}
	// K(i-,j+) flips Ai.
	want = 0.1 + 3*wantAg + 0.125*(0.1+wantAg)
	if got := st.kCost(0, 1, InvertRetain, o); !almost(got, want) {
		t.Errorf("K(-,+) = %v, want %v", got, want)
	}
	// The pair's ranked candidate is its cheapest combination: Af = .9
	// and Ag ≈ .62 both exceed .5, so inverting both wins.
	want = 0.1 + 3*(1-wantAg) + 0.125*(0.1+1-wantAg)
	if combo, k := st.best(AllPositive(2), 0, 1); combo != InvertInvert || !almost(k, want) {
		t.Errorf("best at ++ = %v K=%v, want %v K=%v", combo, k, InvertInvert, want)
	}
	// With g negated the pair reads f+ and g-: overlap 0 and
	// Ag- ≈ .38, so only inverting f pays.
	want = 0.1 + 3*wantAgNeg
	if combo, k := st.best(Assignment{false, true}, 0, 1); combo != InvertRetain || !almost(k, want) {
		t.Errorf("best at +- = %v K=%v, want %v K=%v", combo, k, InvertRetain, want)
	}
}

func BenchmarkApply(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	n := randomNoXorNetwork(rng, 20, 1000, 10)
	asg := make(Assignment, n.NumOutputs())
	for i := range asg {
		asg[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(n, asg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPowerSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	n := randomNoXorNetwork(rng, 8, 60, 4)
	probs := prob.Uniform(n, 0.5)
	eval := switchingEvaluator(probs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := MinPower(n, PowerOptions{InputProbs: probs, Evaluate: eval}); err != nil {
			b.Fatal(err)
		}
	}
}
