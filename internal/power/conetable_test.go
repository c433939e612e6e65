package power_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
)

// relClose reports |a-b| within tol relative to their magnitude. Scores
// computed from cached cone terms reproduce the naive estimate term for
// term, but float summation order (and, for the exact engine, the BDD
// variable order the per-mask block derives) differs, so equality is up
// to rounding.
func relClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// sharedConeNet is the canonical shared-logic trap: both outputs see H
// (and through it G), so a naive "sum of independently synthesized
// cones" would double-count G's load pin from the shared H — the block
// builds H once when the phases agree. The cone table must reproduce the
// real block's sharing, not the duplicated sum.
func sharedConeNet() *logic.Network {
	n := logic.New("shared")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	d, e := n.AddInput("d"), n.AddInput("e")
	g := n.AddAnd(a, b)
	h := n.AddAnd(g, c)
	n.MarkOutput("o1", n.AddOr(h, d))
	n.MarkOutput("o2", n.AddAnd(h, e))
	return n
}

// invertedRailNet forces inverted input rails and inverter-heavy cones
// in both phases, including an output that is a bare inverted input.
func invertedRailNet() *logic.Network {
	n := logic.New("rails")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	nb := n.AddNot(b)
	n.MarkOutput("o1", n.AddNot(n.AddAnd(a, nb)))
	n.MarkOutput("o2", n.AddOr(nb, c))
	n.MarkOutput("o3", n.AddNot(a))
	return n
}

// privateConesNet has disjoint cones — the pure per-cone sum case.
func privateConesNet() *logic.Network {
	n := logic.New("private")
	a, b := n.AddInput("a"), n.AddInput("b")
	c, d := n.AddInput("c"), n.AddInput("d")
	n.MarkOutput("o1", n.AddAnd(a, n.AddNot(b)))
	n.MarkOutput("o2", n.AddOr(n.AddNot(c), d))
	return n
}

func testProbs(n *logic.Network) []float64 {
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = 0.15 + 0.7*float64(i%7)/6
	}
	return probs
}

// fancyLibrary exercises every cost term the default unit-cap library
// zeroes or makes exact: wire load, non-unit caps, AND penalties.
func fancyLibrary() domino.Library {
	lib := domino.DefaultLibrary()
	lib.WireCap = 0.3
	lib.InputCap = 1.7
	lib.OutputCap = 2.1
	lib.AndPenalty = 0.25
	return lib
}

// TestConeTableMatchesNaiveAllMasks is the cone-table exactness
// property: over handcrafted shared/private/inverted-rail networks and
// random networks up to k = 10 outputs, the cached-cone score of every
// one of the 2^k assignments matches the naive Apply + Map + Estimate
// score, for every probability engine and for both the unit-cap and a
// fractional-cap library.
func TestConeTableMatchesNaiveAllMasks(t *testing.T) {
	type tc struct {
		name string
		net  *logic.Network
		lib  domino.Library
		opts power.Options
	}
	var cases []tc
	for _, m := range []struct {
		name string
		opts power.Options
	}{
		{"auto", power.Options{}},
		{"approx", power.Options{Method: power.Approximate}},
		{"depth", power.Options{Method: power.LimitedDepth, Depth: 3}},
	} {
		cases = append(cases,
			tc{"shared/" + m.name, sharedConeNet(), domino.DefaultLibrary(), m.opts},
			tc{"rails/" + m.name, invertedRailNet(), domino.DefaultLibrary(), m.opts},
			tc{"private/" + m.name, privateConesNet(), domino.DefaultLibrary(), m.opts},
			tc{"shared/fancy/" + m.name, sharedConeNet(), fancyLibrary(), m.opts},
		)
	}
	for _, p := range []gen.Params{
		{Name: "rnd4", Inputs: 8, Outputs: 4, Gates: 40, Seed: 11, OrProb: 0.6},
		{Name: "rnd6", Inputs: 10, Outputs: 6, Gates: 70, Seed: 23, OrProb: 0.4},
		{Name: "rnd8", Inputs: 12, Outputs: 8, Gates: 90, Seed: 37, OrProb: 0.55},
	} {
		net := gen.Generate(p).Optimize()
		cases = append(cases,
			tc{p.Name + "/auto", net, domino.DefaultLibrary(), power.Options{}},
			tc{p.Name + "/fancy/approx", net, fancyLibrary(), power.Options{Method: power.Approximate}},
		)
	}
	// One k=10 sweep on the cheap engine keeps the full-mask property
	// affordable at the satellite's upper width.
	cases = append(cases, tc{"rnd10/approx",
		gen.Generate(gen.Params{Name: "rnd10", Inputs: 14, Outputs: 10, Gates: 110, Seed: 51, OrProb: 0.5}).Optimize(),
		domino.DefaultLibrary(), power.Options{Method: power.Approximate}})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			probs := testProbs(c.net)
			table, err := power.NewConeTable(c.net, c.lib, probs, c.opts)
			if err != nil {
				t.Fatalf("NewConeTable: %v", err)
			}
			eval := power.Evaluator(c.lib, probs, c.opts)
			k := c.net.NumOutputs()
			asg := make(phase.Assignment, k)
			for mask := 0; mask < 1<<uint(k); mask++ {
				for i := 0; i < k; i++ {
					asg[i] = mask&(1<<uint(i)) != 0
				}
				got, err := table.ScoreAssignment(asg)
				if err != nil {
					t.Fatalf("mask %d: ScoreAssignment: %v", mask, err)
				}
				res, err := phase.Apply(c.net, asg)
				if err != nil {
					t.Fatalf("mask %d: Apply: %v", mask, err)
				}
				want, err := eval(res)
				if err != nil {
					t.Fatalf("mask %d: naive eval: %v", mask, err)
				}
				if !relClose(got, want, 1e-9) {
					t.Fatalf("mask %d (%s): cone-table score %v != naive %v", mask, asg, got, want)
				}
			}
		})
	}
}

// TestConeTableForkDeterminism pins the scorer purity contract: forked
// scorers, interleaved arbitrarily, return bit-identical scores to the
// table's own sequential stream.
func TestConeTableForkDeterminism(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "fork", Inputs: 10, Outputs: 6, Gates: 60, Seed: 7, OrProb: 0.5}).Optimize()
	probs := testProbs(net)
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := table.Fork(), table.Fork()
	k := net.NumOutputs()
	asg := make(phase.Assignment, k)
	for mask := 0; mask < 1<<uint(k); mask++ {
		for i := 0; i < k; i++ {
			asg[i] = mask&(1<<uint(i)) != 0
		}
		want, err := table.ScoreAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave: f1 scores everything, f2 only every third mask, so
		// their internal epochs diverge — results must not.
		got1, err := f1.ScoreAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		if got1 != want {
			t.Fatalf("mask %d: fork1 %v != table %v", mask, got1, want)
		}
		if mask%3 == 0 {
			got2, err := f2.ScoreAssignment(asg)
			if err != nil {
				t.Fatal(err)
			}
			if got2 != want {
				t.Fatalf("mask %d: fork2 %v != table %v", mask, got2, want)
			}
		}
	}
}

// TestExhaustiveScoredWorkerInvariance is the search-level determinism
// property: the exhaustive search over the cone table returns the
// bit-identical (assignment, score) for workers 1, 2, and 8, and its
// winner scores the same as the naive (Apply + Estimate per mask)
// exhaustive winner.
func TestExhaustiveScoredWorkerInvariance(t *testing.T) {
	for _, p := range []gen.Params{
		{Name: "wi6", Inputs: 10, Outputs: 6, Gates: 70, Seed: 91, OrProb: 0.6},
		{Name: "wi10", Inputs: 14, Outputs: 10, Gates: 110, Seed: 17, OrProb: 0.45},
	} {
		net := gen.Generate(p).Optimize()
		probs := testProbs(net)
		opts := power.Options{Method: power.Approximate}
		lib := domino.DefaultLibrary()
		table, err := power.NewConeTable(net, lib, probs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wantAsg phase.Assignment
		var wantScore float64
		for _, workers := range []int{1, 2, 8} {
			asg, res, score, err := phase.Search(net, phase.SearchOptions{
				Strategy: phase.StrategyExhaustive, Scorer: table, Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			if res == nil || !reflect.DeepEqual(res.Assignment, asg) {
				t.Fatalf("%s workers=%d: result/assignment mismatch", p.Name, workers)
			}
			if wantAsg == nil {
				wantAsg, wantScore = asg, score
				continue
			}
			if !reflect.DeepEqual(asg, wantAsg) || score != wantScore {
				t.Errorf("%s workers=%d: winner drifted: (%s, %v) != (%s, %v)",
					p.Name, workers, asg, score, wantAsg, wantScore)
			}
		}
		// Cross-check the winner against the naive exhaustive search.
		nAsg, _, nScore, err := phase.Search(net, phase.SearchOptions{
			Strategy: phase.StrategyExhaustive, Eval: power.Evaluator(lib, probs, opts), Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nAsg, wantAsg) {
			t.Errorf("%s: scored winner %s != naive winner %s", p.Name, wantAsg, nAsg)
		}
		if !relClose(wantScore, nScore, 1e-9) {
			t.Errorf("%s: scored winner power %v != naive %v", p.Name, wantScore, nScore)
		}
	}
}

// TestMinPowerWithScorerMatchesNaive runs the paper's pairwise heuristic
// with and without the cone-table scorer; both paths must commit to the
// same assignment at (rounding-)equal power.
func TestMinPowerWithScorerMatchesNaive(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "mp", Inputs: 10, Outputs: 5, Gates: 60, Seed: 5, OrProb: 0.6}).Optimize()
	probs := testProbs(net)
	lib := domino.DefaultLibrary()
	opts := power.Options{}
	table, err := power.NewConeTable(net, lib, probs, opts)
	if err != nil {
		t.Fatal(err)
	}
	nAsg, _, nPow, nTrace, err := phase.MinPower(net, phase.PowerOptions{
		InputProbs: probs,
		Evaluate:   power.Evaluator(lib, probs, opts),
	})
	if err != nil {
		t.Fatal(err)
	}
	sAsg, _, sPow, sTrace, err := phase.MinPower(net, phase.PowerOptions{
		InputProbs: probs,
		Scorer:     table,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sAsg, nAsg) {
		t.Errorf("scored MinPower assignment %s != naive %s", sAsg, nAsg)
	}
	if !relClose(sPow, nPow, 1e-9) {
		t.Errorf("scored MinPower power %v != naive %v", sPow, nPow)
	}
	if len(sTrace) != len(nTrace) {
		t.Errorf("trace length %d != naive %d", len(sTrace), len(nTrace))
	}

	// The grouped extension must accept the scorer too.
	gAsg, _, gPow, _, err := phase.MinPowerGroups(net, phase.PowerOptions{
		InputProbs: probs,
		Scorer:     table,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ngAsg, _, ngPow, _, err := phase.MinPowerGroups(net, phase.PowerOptions{
		InputProbs: probs,
		Evaluate:   power.Evaluator(lib, probs, opts),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gAsg, ngAsg) || !relClose(gPow, ngPow, 1e-9) {
		t.Errorf("scored MinPowerGroups (%s, %v) != naive (%s, %v)", gAsg, gPow, ngAsg, ngPow)
	}
}

// TestConeTableSingleOutput covers the k=1 edge (mask space {+,-}).
func TestConeTableSingleOutput(t *testing.T) {
	n := logic.New("one")
	a, b := n.AddInput("a"), n.AddInput("b")
	n.MarkOutput("o", n.AddNot(n.AddOr(a, n.AddNot(b))))
	probs := []float64{0.9, 0.2}
	lib := domino.DefaultLibrary()
	table, err := power.NewConeTable(n, lib, probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eval := power.Evaluator(lib, probs, power.Options{})
	for _, neg := range []bool{false, true} {
		asg := phase.Assignment{neg}
		got, err := table.ScoreAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := phase.Apply(n, asg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval(res)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got, want, 1e-9) {
			t.Errorf("phase %v: %v != %v", neg, got, want)
		}
	}
}
