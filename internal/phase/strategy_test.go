package phase_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
)

// twinTable builds a prepared twin and its cone table.
func twinTable(t *testing.T, p gen.Params) (*logic.Network, *power.ConeTable, []float64) {
	t.Helper()
	net := gen.Generate(p).Optimize()
	probs := make([]float64, net.NumInputs())
	for i := range probs {
		probs[i] = 0.15 + 0.7*float64(i%7)/6
	}
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{Method: power.Approximate})
	if err != nil {
		t.Fatalf("NewConeTable: %v", err)
	}
	return net, table, probs
}

// exhaustibleTwins is the k ≤ 12 matrix of the branch-and-bound
// exactness satellite.
var exhaustibleTwins = []gen.Params{
	{Name: "bb4", Inputs: 8, Outputs: 4, Gates: 40, Seed: 211, OrProb: 0.6},
	{Name: "bb6", Inputs: 10, Outputs: 6, Gates: 70, Seed: 223, OrProb: 0.45},
	{Name: "bb8", Inputs: 12, Outputs: 8, Gates: 90, Seed: 227, OrProb: 0.55},
	{Name: "bb10", Inputs: 14, Outputs: 10, Gates: 110, Seed: 229, OrProb: 0.5},
	{Name: "bb12", Inputs: 18, Outputs: 12, Gates: 130, Seed: 233, OrProb: 0.6},
}

// TestBranchBoundAndGrayMatchExhaustiveScored is the exactness
// satellite: for every k ≤ 12 twin and workers ∈ {1, 2, 8}, both the
// gray-code exhaustive strategy and branch-and-bound return the
// bit-identical (assignment, score) of the ascending-mask reference
// scan over the same scorer (AscendingScan).
func TestBranchBoundAndGrayMatchExhaustiveScored(t *testing.T) {
	for _, p := range exhaustibleTwins {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			net, table, _ := twinTable(t, p)
			refAsg, refScore, err := phase.AscendingScan(net, phase.SearchOptions{Scorer: table})
			if err != nil {
				t.Fatalf("AscendingScan: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, strat := range []phase.SearchStrategy{phase.StrategyExhaustive, phase.StrategyBranchBound} {
					asg, res, score, err := phase.Search(net, phase.SearchOptions{
						Strategy: strat,
						Scorer:   table,
						Workers:  workers,
					})
					if err != nil {
						t.Fatalf("%v workers=%d: %v", strat, workers, err)
					}
					if score != refScore {
						t.Errorf("%v workers=%d: score %v != reference %v (bit-identical contract)",
							strat, workers, score, refScore)
					}
					if !reflect.DeepEqual(asg, refAsg) {
						t.Errorf("%v workers=%d: assignment %s != reference %s", strat, workers, asg, refAsg)
					}
					if res == nil || !reflect.DeepEqual(res.Assignment, asg) {
						t.Errorf("%v workers=%d: result/assignment mismatch", strat, workers)
					}
				}
			}
		})
	}
}

// TestSearchMaskWidthGuard is the overflow satellite: enumeration-based
// searches must reject k ≥ 63 with an explicit error instead of
// silently wrapping 1 << k, while the mask-free strategies still run.
func TestSearchMaskWidthGuard(t *testing.T) {
	n := logic.New("wide63")
	a := n.AddInput("a")
	b := n.AddInput("b")
	for i := 0; i < 63; i++ {
		g := n.AddOr(a, b)
		if i%2 == 0 {
			g = n.AddAnd(g, a)
		}
		n.MarkOutput(fmt.Sprintf("o%02d", i), g)
	}
	if _, _, _, err := phase.Search(n, phase.SearchOptions{Strategy: phase.StrategyExhaustive}); err == nil {
		t.Fatal("Eval-only exhaustive accepted 63 outputs")
	} else if !strings.Contains(err.Error(), "62 phase bits") {
		t.Fatalf("Eval-only exhaustive error %q does not name the mask-width limit", err)
	}
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = 0.5
	}
	table, err := power.NewConeTable(n, domino.DefaultLibrary(), probs, power.Options{Method: power.Approximate})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []phase.SearchOptions{
		{Strategy: phase.StrategyExhaustive, Scorer: table},
		{ExhaustiveLimit: 64, Scorer: table},
	} {
		if _, _, _, err := phase.Search(n, opts); err == nil {
			t.Fatalf("%v exhaustive accepted 63 outputs", opts.Strategy)
		} else if !strings.Contains(err.Error(), "62 phase bits") {
			t.Fatalf("%v exhaustive error %q does not name the mask-width limit", opts.Strategy, err)
		}
	}
	// The mask-free heuristic strategies handle the same width fine
	// (branch-and-bound is also mask-free, but exact: its worst case is
	// exponential, so it is exercised at enumeration-checkable widths in
	// the tests above instead).
	for _, strat := range []phase.SearchStrategy{phase.StrategyGreedy, phase.StrategyAnneal} {
		asg, _, _, err := phase.Search(n, phase.SearchOptions{
			Strategy: strat, Scorer: table, AnnealSteps: 500, Restarts: 1,
		})
		if err != nil {
			t.Errorf("%v at 63 outputs: %v", strat, err)
		} else if len(asg) != 63 {
			t.Errorf("%v returned %d-output assignment", strat, len(asg))
		}
	}
}

// TestAnnealDeterministicAndWorkerInvariant pins the annealing
// determinism contract: a fixed (Seed, Restarts, AnnealSteps) yields one
// (assignment, score) at every worker count, never worse than the
// all-positive start.
func TestAnnealDeterministicAndWorkerInvariant(t *testing.T) {
	net, table, _ := twinTable(t, gen.Params{Name: "an16", Inputs: 22, Outputs: 16, Gates: 170, Seed: 307, OrProb: 0.6})
	base, err := table.ScoreAssignment(phase.AllPositive(net.NumOutputs()))
	if err != nil {
		t.Fatal(err)
	}
	var wantAsg phase.Assignment
	var wantScore float64
	for _, workers := range []int{1, 2, 8} {
		asg, _, score, err := phase.Search(net, phase.SearchOptions{
			Strategy: phase.StrategyAnneal,
			Scorer:   table,
			Workers:  workers,
			Seed:     42,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if score > base {
			t.Errorf("workers=%d: anneal score %v worse than all-positive %v", workers, score, base)
		}
		if wantAsg == nil {
			wantAsg, wantScore = asg, score
			continue
		}
		if !reflect.DeepEqual(asg, wantAsg) || score != wantScore {
			t.Errorf("workers=%d: (%s, %v) != (%s, %v)", workers, asg, score, wantAsg, wantScore)
		}
	}
	// A different seed is allowed to land elsewhere, but must still be
	// deterministic for itself.
	a1, _, s1, err := phase.Search(net, phase.SearchOptions{Strategy: phase.StrategyAnneal, Scorer: table, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a2, _, s2, err := phase.Search(net, phase.SearchOptions{Strategy: phase.StrategyAnneal, Scorer: table, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) || s1 != s2 {
		t.Errorf("same-seed anneal runs diverged: (%s, %v) != (%s, %v)", a1, s1, a2, s2)
	}
}

// TestStrategiesWithoutScorer drives every strategy through the
// Eval-adapter fallback on a small network: no incremental scorer, but
// the searches must still run and agree with the exhaustive optimum
// where they are exact.
func TestStrategiesWithoutScorer(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "ev5", Inputs: 9, Outputs: 5, Gates: 50, Seed: 401, OrProb: 0.55}).Optimize()
	refAsg, refScore, err := phase.AscendingScan(net, phase.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	asg, _, score, err := phase.Search(net, phase.SearchOptions{Strategy: phase.StrategyExhaustive})
	if err != nil {
		t.Fatalf("exhaustive fallback: %v", err)
	}
	if score != refScore || !reflect.DeepEqual(asg, refAsg) {
		t.Errorf("exhaustive fallback (%s, %v) != (%s, %v)", asg, score, refAsg, refScore)
	}
	for _, strat := range []phase.SearchStrategy{phase.StrategyGreedy, phase.StrategyAnneal} {
		asg, res, score, err := phase.Search(net, phase.SearchOptions{
			Strategy: strat, AnnealSteps: 300, Restarts: 2, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%v fallback: %v", strat, err)
		}
		if res == nil || len(asg) != net.NumOutputs() {
			t.Fatalf("%v fallback returned malformed result", strat)
		}
		if score > refScore && score-refScore > refScore {
			t.Errorf("%v fallback score %v implausibly worse than optimum %v", strat, score, refScore)
		}
	}
	// Branch-and-bound genuinely needs prefix bounds, and its error names
	// the objective it got (the evaluator adapter), not the unset Scorer.
	if _, _, _, err := phase.Search(net, phase.SearchOptions{Strategy: phase.StrategyBranchBound}); err == nil {
		t.Error("branch-and-bound accepted a boundless objective")
	} else if strings.Contains(err.Error(), "<nil>") {
		t.Errorf("branch-and-bound error %q does not name the objective", err)
	}
}

// TestMinPowerStrategyDelegation: PowerOptions.Strategy routes MinPower
// through the strategy path, whose exact searches must agree with the
// reference scan.
func TestMinPowerStrategyDelegation(t *testing.T) {
	net, table, probs := twinTable(t, gen.Params{Name: "mpd", Inputs: 12, Outputs: 8, Gates: 90, Seed: 409, OrProb: 0.5})
	refAsg, refScore, err := phase.AscendingScan(net, phase.SearchOptions{Scorer: table})
	if err != nil {
		t.Fatal(err)
	}
	asg, res, score, trace, err := phase.MinPower(net, phase.PowerOptions{
		InputProbs: probs,
		Scorer:     table,
		Strategy:   phase.StrategyBranchBound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if score != refScore || !reflect.DeepEqual(asg, refAsg) {
		t.Errorf("delegated MinPower (%s, %v) != reference (%s, %v)", asg, score, refAsg, refScore)
	}
	if res == nil || len(trace) != 0 {
		t.Errorf("delegated MinPower: res=%v trace=%v", res, trace)
	}
}

// TestAnnealBeatsMinPowerOnWide32 is the ISSUE 4 acceptance gate: on
// the 32-output twin — where 2^32 enumeration is infeasible — seeded
// annealing over the cone table must strictly beat the paper's pairwise
// MinPower heuristic.
func TestAnnealBeatsMinPowerOnWide32(t *testing.T) {
	c := gen.Wide32()
	net := c.Net.Optimize()
	probs := make([]float64, net.NumInputs())
	for i := range probs {
		probs[i] = 0.5
	}
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, mpScore, _, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: table})
	if err != nil {
		t.Fatal(err)
	}
	_, _, aScore, err := phase.Search(net, phase.SearchOptions{
		Strategy: phase.StrategyAnneal,
		Scorer:   table,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(aScore < mpScore) {
		t.Errorf("annealing score %v does not strictly beat the MinPower heuristic %v on wide32", aScore, mpScore)
	}
}

// TestStrategyInitialStart pins that PowerOptions.Initial /
// SearchOptions.Initial seeds the heuristic strategies' first start.
// The twin is chosen so default greedy (all-positive + seed-0 restarts)
// misses the exhaustive optimum; seeded with the optimum — a fixed
// point of first-improvement descent, and the earliest start, so it
// wins every tie — greedy must return it bit-identically.
func TestStrategyInitialStart(t *testing.T) {
	net, table, probs := twinTable(t, gen.Params{Name: "init8", Inputs: 12, Outputs: 8, Gates: 90, Seed: 433, OrProb: 0.5})
	optAsg, optScore, err := phase.AscendingScan(net, phase.SearchOptions{Scorer: table})
	if err != nil {
		t.Fatal(err)
	}
	_, _, defScore, err := phase.Search(net, phase.SearchOptions{
		Strategy: phase.StrategyGreedy, Scorer: table, Seed: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if defScore <= optScore {
		t.Fatalf("twin no longer separates greedy (%v) from the optimum (%v); pick another seed", defScore, optScore)
	}
	asg, _, score, _, err := phase.MinPower(net, phase.PowerOptions{
		InputProbs: probs,
		Scorer:     table,
		Strategy:   phase.StrategyGreedy,
		Initial:    optAsg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if score != optScore || !reflect.DeepEqual(asg, optAsg) {
		t.Errorf("Initial-seeded greedy (%s, %v) != optimum (%s, %v): Initial was ignored",
			asg, score, optAsg, optScore)
	}
}

// TestParseStrategyRoundTrip covers the CLI spellings.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []phase.SearchStrategy{
		phase.StrategyAuto, phase.StrategyExhaustive, phase.StrategyBranchBound,
		phase.StrategyAnneal, phase.StrategyGreedy,
	} {
		got, err := phase.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := phase.ParseStrategy("quantum"); err == nil {
		t.Error("ParseStrategy accepted nonsense")
	}
}

// TestRescoreStateStickyError pins the adapter's Err contract: a Flip
// failure stays visible through a later successful Set.
func TestRescoreStateStickyError(t *testing.T) {
	n := logic.New("sticky")
	a, b := n.AddInput("a"), n.AddInput("b")
	n.MarkOutput("o1", n.AddAnd(a, b))
	n.MarkOutput("o2", n.AddOr(a, b))
	// Workers is left at GOMAXPROCS, so Eval must be safe for
	// concurrent use: the call counter is atomic.
	var calls atomic.Int64
	eval := func(r *phase.Result) (float64, error) {
		n := calls.Add(1)
		if r.Assignment[0] && !r.Assignment[1] {
			return 0, fmt.Errorf("injected failure")
		}
		return float64(n), nil
	}
	// Greedy with an evaluator that fails on one assignment must surface
	// the failure even though later evaluations succeed.
	_, _, _, err := phase.Search(n, phase.SearchOptions{
		Strategy: phase.StrategyGreedy, Eval: eval, Restarts: 1, Seed: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("failed evaluation was swallowed: err = %v", err)
	}
}

// TestSearchRejectsWrongLengthInitial pins that a mismatched Initial is
// an error on the strategy path, matching the StrategyAuto MinPower
// validation, rather than being silently replaced by all-positive.
func TestSearchRejectsWrongLengthInitial(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "wl", Inputs: 8, Outputs: 4, Gates: 40, Seed: 443, OrProb: 0.5}).Optimize()
	for _, strat := range []phase.SearchStrategy{phase.StrategyGreedy, phase.StrategyAnneal} {
		_, _, _, err := phase.Search(net, phase.SearchOptions{
			Strategy: strat, Initial: phase.AllPositive(net.NumOutputs() + 1),
		})
		if err == nil || !strings.Contains(err.Error(), "initial assignment length") {
			t.Errorf("%v accepted a wrong-length Initial: err = %v", strat, err)
		}
	}
}
