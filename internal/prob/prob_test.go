package prob

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/logic"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestExactFigure5Probabilities(t *testing.T) {
	// The paper's Figure 5 numbers at input probability 0.9:
	// p(a+b) = .99, p(cd) = .81, p((a+b)+(cd)) = .9981,
	// p((a+b)·(cd)) = .8019, complements .0019 and .1981.
	n := logic.New("fig5")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	ab := n.AddOr(a, b)
	cd := n.AddAnd(c, d)
	g := n.AddOr(ab, cd)
	f := n.AddAnd(ab, cd)
	ng := n.AddNot(g)
	nf := n.AddNot(f)
	n.MarkOutput("g", g)
	n.MarkOutput("f", f)
	n.MarkOutput("ng", ng)
	n.MarkOutput("nf", nf)

	p, err := Exact(n, Uniform(n, 0.9))
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	checks := []struct {
		name string
		id   logic.NodeID
		want float64
	}{
		{"a+b", ab, 0.99},
		{"cd", cd, 0.81},
		{"(a+b)+(cd)", g, 0.9981},
		{"(a+b)(cd)", f, 0.8019},
		{"not g", ng, 0.0019},
		{"not f", nf, 0.1981},
	}
	for _, c := range checks {
		if !almost(p[c.id], c.want) {
			t.Errorf("p(%s) = %v, want %v", c.name, p[c.id], c.want)
		}
	}
}

func TestExactHandlesReconvergence(t *testing.T) {
	// f = a·ā must have probability 0 exactly; the approximate engine
	// gets this wrong (p(a)·(1−p(a))), which is the point of using BDDs.
	n := logic.New("reconv")
	a := n.AddInput("a")
	na := n.AddNot(a)
	f := n.AddAnd(a, na)
	n.MarkOutput("f", f)
	p, err := Exact(n, Uniform(n, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if p[f] != 0 {
		t.Errorf("exact p(a·ā) = %v, want 0", p[f])
	}
	ap := Approximate(n, Uniform(n, 0.5))
	if almost(ap[f], 0) {
		t.Errorf("approximate should be wrong here, got exact 0")
	}
	if !almost(ap[f], 0.25) {
		t.Errorf("approximate p = %v, want 0.25 under independence", ap[f])
	}
}

func TestApproximateMatchesExactOnTrees(t *testing.T) {
	// On fanout-free (tree) networks the independence assumption holds.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := logic.New("tree")
		// Build a random binary tree over 8 fresh inputs.
		var build func(depth int) logic.NodeID
		inputCount := 0
		build = func(depth int) logic.NodeID {
			if depth == 0 {
				id := n.AddInput(treeInputName(inputCount))
				inputCount++
				return id
			}
			l := build(depth - 1)
			r := build(depth - 1)
			switch rng.Intn(3) {
			case 0:
				return n.AddAnd(l, r)
			case 1:
				return n.AddOr(l, r)
			default:
				return n.AddXor(l, r)
			}
		}
		root := build(3)
		n.MarkOutput("f", root)
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		exact, err := Exact(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		approx := Approximate(n, probs)
		if math.Abs(exact[root]-approx[root]) > 1e-9 {
			t.Fatalf("trial %d: tree mismatch exact=%v approx=%v", trial, exact[root], approx[root])
		}
	}
}

func treeInputName(i int) string {
	return "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestComplementProperty(t *testing.T) {
	// Property 4.1: complementing an output complements every node
	// probability in its cone. Verified at the output here; the phase
	// package tests the cone-wide version.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := logic.New("prop41")
		var ids []logic.NodeID
		for i := 0; i < 5; i++ {
			ids = append(ids, n.AddInput(treeInputName(i)))
		}
		for g := 0; g < 15; g++ {
			pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
			switch rng.Intn(3) {
			case 0:
				ids = append(ids, n.AddAnd(pick(), pick()))
			case 1:
				ids = append(ids, n.AddOr(pick(), pick()))
			default:
				ids = append(ids, n.AddNot(pick()))
			}
		}
		root := ids[len(ids)-1]
		inv := n.AddNot(root)
		n.MarkOutput("f", root)
		n.MarkOutput("nf", inv)
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		p, err := Exact(n, probs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p[inv]-(1-p[root])) > 1e-9 {
			t.Fatalf("trial %d: p(f̄) = %v, 1−p(f) = %v", trial, p[inv], 1-p[root])
		}
	}
}

func TestSwitchingModels(t *testing.T) {
	if DominoSwitching(0.3) != 0.3 {
		t.Error("domino switching must equal signal probability")
	}
	if !almost(StaticSwitching(0.5), 0.5) {
		t.Error("static switching at p=0.5 must be 0.5")
	}
	if !almost(StaticSwitching(0.9), 0.18) {
		t.Errorf("static switching at p=0.9 = %v, want 0.18 (Figure 5)", StaticSwitching(0.9))
	}
	if !almost(BoundaryInputInverterSwitching(0.9), 0.18) {
		t.Error("input boundary inverter model wrong")
	}
	if !almost(BoundaryOutputInverterSwitching(0.0019), 0.0019) {
		t.Error("output boundary inverter model wrong")
	}
}

func TestFigure2Curves(t *testing.T) {
	domino, static := Figure2Curves(10)
	if len(domino) != 11 || len(static) != 11 {
		t.Fatalf("lengths = %d, %d", len(domino), len(static))
	}
	// Domino is linear and reaches 1.0; static peaks at 0.5 with value 0.5.
	if domino[10].S != 1.0 {
		t.Error("domino curve must reach 1.0 at p=1")
	}
	if static[10].S != 0 || static[0].S != 0 {
		t.Error("static curve must be 0 at both ends")
	}
	if !almost(static[5].S, 0.5) {
		t.Error("static curve must peak at 0.5")
	}
	// For p > 0.5 domino switches more than static — the asymmetry the
	// phase assignment exploits.
	for i := 6; i <= 10; i++ {
		if domino[i].S <= static[i].S {
			t.Errorf("at p=%v: domino %v <= static %v", domino[i].P, domino[i].S, static[i].S)
		}
	}
}

func TestUniform(t *testing.T) {
	n := logic.New("u")
	n.AddInput("a")
	n.AddInput("b")
	u := Uniform(n, 0.25)
	if len(u) != 2 || u[0] != 0.25 || u[1] != 0.25 {
		t.Errorf("Uniform = %v", u)
	}
}

func BenchmarkExact(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	n := logic.New("bench")
	var ids []logic.NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, n.AddInput(treeInputName(i)))
	}
	for g := 0; g < 800; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(3) {
		case 0:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 1:
			ids = append(ids, n.AddOr(pick(), pick()))
		default:
			ids = append(ids, n.AddNot(pick()))
		}
	}
	n.MarkOutput("f", ids[len(ids)-1])
	probs := Uniform(n, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(n, probs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	n := logic.New("e")
	n.AddInput("a")
	if _, err := Exact(n, []float64{0.5, 0.5}); err == nil {
		t.Error("Exact accepted wrong-length probs")
	}
	if _, err := ExactLits(bdd.New(1), n, nil, []float64{0.5, 0.5}); err == nil {
		t.Error("ExactLits accepted wrong-length var probs")
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Approximate arity", func() { Approximate(n, []float64{0.5, 0.5}) })
	expectPanic("Figure2Curves steps", func() { Figure2Curves(0) })
	expectPanic("LimitedDepthBudget arity", func() { LimitedDepthBudget(n, []float64{0.5, 0.5}, 2, 0, nil) })
}

func TestExactLitsCorrelatedRails(t *testing.T) {
	// A block with x and x̄ as separate inputs: over the shared variable
	// the AND of the two rails is exactly 0.
	blk := logic.New("rails")
	x := blk.AddInput("x")
	xb := blk.AddInput("x_bar")
	f := blk.AddAnd(x, xb)
	blk.MarkOutput("f", f)
	lits := []bdd.InputLit{{Var: 0}, {Var: 0, Neg: true}}
	probs, err := ExactLits(bdd.New(1), blk, lits, []float64{0.7})
	if err != nil {
		t.Fatal(err)
	}
	if probs[f] != 0 {
		t.Errorf("p(x·x̄) = %v, want 0 with correlated rails", probs[f])
	}
}
