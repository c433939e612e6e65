package phase

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/prob"
	"repro/internal/verify"
)

// figure5Network builds the two-output example of the paper's Figures 3-5:
//
//	f = not(a+b) + not(c·d)   (= the complement of (a+b)(cd))
//	g = (a+b) + (c·d)
//
// written with explicit internal inverters, as technology-independent
// synthesis would produce it.
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

// totalSwitching computes the Figure 5 switching metric of a synthesis:
// every domino gate switches with its signal probability, input-boundary
// static inverters switch 2p(1−p), output-boundary inverters switch with
// the driving block output's probability. Exact probabilities via BDDs.
func totalSwitching(t testing.TB, r *Result, inputProbs []float64) (domino, inInv, outInv float64) {
	t.Helper()
	blockProbs, err := prob.Exact(r.Block, r.BlockInputProbs(inputProbs))
	if err != nil {
		t.Fatalf("prob.Exact: %v", err)
	}
	for i := 0; i < r.Block.NumNodes(); i++ {
		k := r.Block.Kind(logic.NodeID(i))
		if k.IsGate() && k != logic.KindBuf {
			domino += prob.DominoSwitching(blockProbs[i])
		}
	}
	for _, bi := range r.Inputs {
		if bi.Inverted {
			inInv += prob.BoundaryInputInverterSwitching(inputProbs[bi.InputPos])
		}
	}
	for i, bo := range r.Outputs {
		if bo.Negated {
			outInv += prob.BoundaryOutputInverterSwitching(blockProbs[r.Block.Outputs()[i].Driver])
		}
	}
	return domino, inInv, outInv
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFigure5LeftRealization(t *testing.T) {
	// Left of Figure 5: f negative, g positive. No input inverters, the
	// block computes X=a+b, Y=cd, f̄=X·Y, g=X+Y; switching 3.6 in the
	// block and .8019 at the output inverter.
	n := figure5Network()
	r, err := Apply(n, Assignment{true, false})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := r.Block.GateCount(); got != 4 {
		t.Errorf("left block gate count = %d, want 4\n%s", got, r.Block)
	}
	if r.InputInverterCount() != 0 {
		t.Errorf("left input inverters = %d, want 0", r.InputInverterCount())
	}
	if r.OutputInverterCount() != 1 {
		t.Errorf("left output inverters = %d, want 1", r.OutputInverterCount())
	}
	probs := prob.Uniform(n, 0.9)
	domino, inInv, outInv := totalSwitching(t, r, probs)
	if !almost(domino, 3.6) {
		t.Errorf("left domino switching = %v, want 3.6 (paper)", domino)
	}
	if !almost(inInv, 0) {
		t.Errorf("left input inverter switching = %v, want 0", inInv)
	}
	if !almost(outInv, 0.8019) {
		t.Errorf("left output inverter switching = %v, want .8019 (paper)", outInv)
	}
}

func TestFigure5RightRealization(t *testing.T) {
	// Right of Figure 5: f positive, g negative. Four input inverters
	// (.72 total), block computes A=āb̄, B=c̄+d̄, f=A+B, ḡ=A·B (switching
	// .40), output inverter .0019.
	n := figure5Network()
	r, err := Apply(n, Assignment{false, true})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := r.Block.GateCount(); got != 4 {
		t.Errorf("right block gate count = %d, want 4\n%s", got, r.Block)
	}
	if r.InputInverterCount() != 4 {
		t.Errorf("right input inverters = %d, want 4", r.InputInverterCount())
	}
	if r.OutputInverterCount() != 1 {
		t.Errorf("right output inverters = %d, want 1", r.OutputInverterCount())
	}
	probs := prob.Uniform(n, 0.9)
	domino, inInv, outInv := totalSwitching(t, r, probs)
	if !almost(domino, 0.40) {
		t.Errorf("right domino switching = %v, want .40 (paper)", domino)
	}
	if !almost(inInv, 0.72) {
		t.Errorf("right input inverter switching = %v, want .72 (paper)", inInv)
	}
	if !almost(outInv, 0.0019) {
		t.Errorf("right output inverter switching = %v, want .0019 (paper)", outInv)
	}
}

func TestFigure5SeventyFivePercent(t *testing.T) {
	// The paper's headline claim for this example: the second realization
	// has ~75% fewer transitions than the first.
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	left, err := Apply(n, Assignment{true, false})
	if err != nil {
		t.Fatal(err)
	}
	right, err := Apply(n, Assignment{false, true})
	if err != nil {
		t.Fatal(err)
	}
	ld, li, lo := totalSwitching(t, left, probs)
	rd, ri, ro := totalSwitching(t, right, probs)
	leftTotal := ld + li + lo
	rightTotal := rd + ri + ro
	if !almost(leftTotal, 4.4019) {
		t.Errorf("left total = %v, want 4.4019", leftTotal)
	}
	if !almost(rightTotal, 1.1219) {
		t.Errorf("right total = %v, want 1.1219", rightTotal)
	}
	saving := 1 - rightTotal/leftTotal
	if saving < 0.74 || saving > 0.76 {
		t.Errorf("saving = %.4f, want ~0.75 (paper: 75%% fewer transitions)", saving)
	}
}

func TestApplyProducesInverterFreeEquivalentBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		n := randomNoXorNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(30), 1+rng.Intn(4))
		asg := make(Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		r, err := Apply(n, asg)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		if r.Block.HasInverters() {
			t.Fatalf("trial %d: block has inverters", trial)
		}
		rec := r.Reconstructed()
		if err := verify.Check(n, rec); err != nil {
			t.Fatalf("trial %d: phase assignment %s changed function (%v)\noriginal:\n%s\nblock:\n%s",
				trial, asg, err, n, r.Block)
		}
	}
}

func TestApplyRejectsXor(t *testing.T) {
	n := logic.New("x")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.MarkOutput("f", n.AddXor(a, b))
	if _, err := Apply(n, Assignment{false}); err == nil {
		t.Error("Apply accepted XOR network")
	}
}

func TestApplyRejectsWrongAssignmentLength(t *testing.T) {
	n := figure5Network()
	if _, err := Apply(n, Assignment{false}); err == nil {
		t.Error("Apply accepted wrong-length assignment")
	}
}

func TestTrappedInverterDuplication(t *testing.T) {
	// Figure 4: conflicting phases on outputs sharing logic force
	// duplication. f and g share (a+b); assigning f positive and g
	// negative demands both polarities of the shared gate.
	n := logic.New("fig4")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	x := n.AddOr(a, b)
	f := n.AddAnd(x, c)
	g := n.AddAnd(x, b)
	n.MarkOutput("f", f)
	n.MarkOutput("g", g)

	same, err := Apply(n, Assignment{false, false})
	if err != nil {
		t.Fatal(err)
	}
	conflict, err := Apply(n, Assignment{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if sameCount, conflictCount := same.Block.GateCount(), conflict.Block.GateCount(); conflictCount <= sameCount {
		t.Errorf("conflicting phases should duplicate logic: same=%d conflict=%d", sameCount, conflictCount)
	}
}

func TestAssignmentString(t *testing.T) {
	if got := (Assignment{false, true, false}).String(); got != "+-+" {
		t.Errorf("String = %q, want \"+-+\"", got)
	}
}

func randomNoXorNetwork(rng *rand.Rand, numInputs, numGates, numOutputs int) *logic.Network {
	n := logic.New("rand")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(nameFor("i", i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(5) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddBuf(pick()))
		case 2:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 3:
			ids = append(ids, n.AddOr(pick(), pick()))
		default:
			ids = append(ids, n.AddOr(pick(), pick(), pick()))
		}
	}
	if numOutputs > len(ids) {
		numOutputs = len(ids)
	}
	for i := 0; i < numOutputs; i++ {
		n.MarkOutput(nameFor("o", i), ids[len(ids)-1-i])
	}
	return n
}

func nameFor(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
