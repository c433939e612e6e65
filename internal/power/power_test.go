package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
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

func mapFig5(t testing.TB, asg phase.Assignment) *domino.Block {
	t.Helper()
	r, err := phase.Apply(figure5Network(), asg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// cellSwitching is each domino cell's switching probability, parallel
// to Block.Cells, read from an Estimate report's node probabilities.
func cellSwitching(b *domino.Block, rep *Report) []float64 {
	out := make([]float64, len(b.Cells))
	for ci := range b.Cells {
		out[ci] = prob.DominoSwitching(rep.NodeProbs[b.Cells[ci].Node])
	}
	return out
}

// totalSwitching is Figure 5's metric: the block's unweighted total
// switching (every load and penalty 1) — its cells', then its boundary
// inverters' — from Estimate's exact node probabilities.
func totalSwitching(t *testing.T, b *domino.Block, probs []float64) float64 {
	t.Helper()
	rep, err := Estimate(b, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range cellSwitching(b, rep) {
		total += s
	}
	for _, bi := range b.Phase.Inputs {
		if bi.Inverted {
			total += prob.BoundaryInputInverterSwitching(probs[bi.InputPos])
		}
	}
	for i, bo := range b.Phase.Outputs {
		if bo.Negated {
			total += prob.BoundaryOutputInverterSwitching(rep.NodeProbs[b.Net.Outputs()[i].Driver])
		}
	}
	return total
}

func TestFigure5Switching(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	left := mapFig5(t, phase.Assignment{true, false})
	right := mapFig5(t, phase.Assignment{false, true})
	if ls := totalSwitching(t, left, probs); !almost(ls, 4.4019) {
		t.Errorf("left total switching = %v, want 4.4019", ls)
	}
	if rs := totalSwitching(t, right, probs); !almost(rs, 1.1219) {
		t.Errorf("right total switching = %v, want 1.1219", rs)
	}
}

func TestEstimateComponents(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	right := mapFig5(t, phase.Assignment{false, true})
	rep, err := Estimate(right, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactProbs {
		t.Error("expected exact probabilities")
	}
	// Block: A=āb̄ (p=.01), B=c̄+d̄ (p=.19) each feeding 2 cells (load 2);
	// f=A+B (p=.1981), ḡ=A·B (p=.0019) each driving OutputCap=1.
	wantDomino := 0.01*2 + 0.19*2 + 0.1981*1 + 0.0019*1
	if !almost(rep.Domino, wantDomino) {
		t.Errorf("Domino = %v, want %v", rep.Domino, wantDomino)
	}
	// Four input inverters each switching .18, each driving one cell pin
	// (load 1).
	if !almost(rep.InputInverters, 4*0.18*1) {
		t.Errorf("InputInverters = %v, want %v", rep.InputInverters, 4*0.18)
	}
	// Output inverter on ḡ: switching .0019 × OutputCap 1.
	if !almost(rep.OutputInverters, 0.0019) {
		t.Errorf("OutputInverters = %v, want 0.0019", rep.OutputInverters)
	}
	if !almost(rep.Total, rep.Domino+rep.InputInverters+rep.OutputInverters) {
		t.Error("Total != sum of components")
	}
	if len(rep.PerCell) != right.DominoCellCount() {
		t.Errorf("PerCell length %d", len(rep.PerCell))
	}
	sum := 0.0
	for _, p := range rep.PerCell {
		sum += p
	}
	if !almost(sum, rep.Domino) {
		t.Error("PerCell does not sum to Domino")
	}
}

func TestApproximateVsExactOnTreeBlock(t *testing.T) {
	// Tree-structured blocks have no reconvergence, so both engines must
	// agree exactly.
	n := logic.New("tree")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.MarkOutput("f", n.AddOr(n.AddAnd(a, b), n.AddAnd(c, d)))
	r, err := phase.Apply(n, phase.AllPositive(1))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	probs := []float64{0.3, 0.6, 0.2, 0.8}
	ex, err := Estimate(blk, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Estimate(blk, probs, Options{Method: Approximate})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ex.Total, ap.Total) {
		t.Errorf("exact %v != approximate %v on a tree", ex.Total, ap.Total)
	}
	if ap.ExactProbs {
		t.Error("approximate report claims exact probs")
	}
}

func TestAutoMethodSelection(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	blk := mapFig5(t, phase.Assignment{false, true})
	rep, err := Estimate(blk, probs, Options{Method: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExactProbs {
		t.Error("Auto should pick exact for 4 inputs")
	}
	// A wide interface must fall back to approximate.
	n := logic.New("wide")
	var ids []logic.NodeID
	for i := 0; i < AutoExactInputLimit+1; i++ {
		ids = append(ids, n.AddInput(wname(i)))
	}
	n.MarkOutput("f", n.AddOr(ids...))
	r, err := phase.Apply(n, phase.AllPositive(1))
	if err != nil {
		t.Fatal(err)
	}
	wblk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	wrep, err := Estimate(wblk, prob.Uniform(n, 0.5), Options{Method: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if wrep.ExactProbs {
		t.Error("Auto should fall back to approximate beyond the input limit")
	}
}

// TestEstimateBadOrderReturnsError: Options.Order arrives in config
// JSON and Validate does not check it, so a malformed order must come
// back from the exact engine as an error naming the order, never as a
// panic — with and without a budget token and auto-reorder attached to
// the build's manager.
func TestEstimateBadOrderReturnsError(t *testing.T) {
	blk := mapFig5(t, phase.Assignment{false, true})
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	cases := map[string][]int{
		"wrong length":      {0, 1, 2},
		"repeated variable": {0, 1, 1, 3},
		"out of range":      {0, 1, 2, 9},
		"negative":          {0, -1, 2, 3},
	}
	for name, ord := range cases {
		for _, opts := range []Options{
			{Method: Exact, Order: ord},
			{Method: Exact, Order: ord, Budget: budget.New(1000, 0), Reorder: true},
		} {
			rep, err := Estimate(blk, probs, opts)
			if err == nil || rep != nil {
				t.Errorf("%s (budgeted %v): Estimate accepted order %v", name, opts.Budget != nil, ord)
				continue
			}
			if !strings.Contains(err.Error(), "order") {
				t.Errorf("%s (budgeted %v): error %q does not mention the order", name, opts.Budget != nil, err)
			}
		}
	}
}

func TestLimitedDepthMethod(t *testing.T) {
	// On the tree block all three engines agree; LimitedDepth must land
	// between Approximate and Exact in general and exactly here.
	n := logic.New("tree")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.MarkOutput("f", n.AddOr(n.AddAnd(a, b), n.AddAnd(c, d)))
	r, err := phase.Apply(n, phase.AllPositive(1))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	probs := []float64{0.3, 0.6, 0.2, 0.8}
	ex, err := Estimate(blk, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Estimate(blk, probs, Options{Method: LimitedDepth, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ex.Total, ld.Total) {
		t.Errorf("limited depth %v != exact %v on a tree", ld.Total, ex.Total)
	}
	if ld.ExactProbs {
		t.Error("limited-depth report claims exact probs")
	}
}

// TestEvaluatorAdapterMatchesEstimate: Estimator.Evaluate is the adapter
// the phase searches call per candidate; it must price a network exactly
// as Map followed by Estimate does.
func TestEvaluatorAdapterMatchesEstimate(t *testing.T) {
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	lib := domino.DefaultLibrary()
	eval := NewEstimator(lib, probs, Options{Method: Exact}).Evaluate
	r, err := phase.Apply(n, phase.Assignment{false, true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval(r)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := domino.Map(r, lib)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Estimate(blk, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, rep.Total) {
		t.Errorf("Estimator.Evaluate = %v, Estimate = %v", got, rep.Total)
	}
}

func TestAndPenaltyRaisesPower(t *testing.T) {
	n := logic.New("pen")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.MarkOutput("f", n.AddAnd(a, b, c, d))
	r, err := phase.Apply(n, phase.AllPositive(1))
	if err != nil {
		t.Fatal(err)
	}
	probs := prob.Uniform(n, 0.9)
	flat := domino.DefaultLibrary()
	penal := flat
	penal.AndPenalty = 0.5
	b1, err := domino.Map(r, flat)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := domino.Map(r, penal)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Estimate(b1, probs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Estimate(b2, probs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Total <= r1.Total {
		t.Errorf("AND penalty did not raise power: %v vs %v", r2.Total, r1.Total)
	}
}

func TestCellSwitching(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	blk := mapFig5(t, phase.Assignment{true, false})
	rep, err := Estimate(blk, probs, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	sw := cellSwitching(blk, rep)
	// Cells implement X=a+b (.99), Y=cd (.81), X·Y (.8019), X+Y (.9981).
	want := map[float64]bool{0.99: true, 0.81: true, 0.8019: true, 0.9981: true}
	for _, s := range sw {
		found := false
		for w := range want {
			if almost(s, w) {
				found = true
				delete(want, w)
				break
			}
		}
		if !found {
			t.Errorf("unexpected cell switching %v", s)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing cell switchings: %v", want)
	}
}

func wname(i int) string {
	return "w" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}
