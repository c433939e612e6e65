package seq

import (
	"errors"
	"math"
	"testing"

	"repro/internal/blif"
	"repro/internal/budget"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sgraph"
)

// toggleCircuit: one flip-flop with q' = ¬q (divide-by-two counter).
func toggleCircuit(t testing.TB) *Circuit {
	t.Helper()
	n := logic.New("toggle")
	q := n.AddInput("q")
	en := n.AddInput("en")
	nq := n.AddNot(q)
	// q' = en ? ¬q : q  = en·¬q + ¬en·q
	nen := n.AddNot(en)
	next := n.AddOr(n.AddAnd(en, nq), n.AddAnd(nen, q))
	n.MarkOutput("next", next)
	n.MarkOutput("out", q)
	c, err := New(n, []int{0}, []int{0}, []string{"q"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestSGraphSelfLoop(t *testing.T) {
	c := toggleCircuit(t)
	g := c.SGraph()
	if !g.HasEdge(0, 0) {
		t.Error("toggle FF must have an s-graph self-loop")
	}
	cut := c.Cut(sgraph.DefaultOptions())
	if len(cut) != 1 || cut[0] != 0 {
		t.Errorf("cut = %v, want [0]", cut)
	}
}

func TestToggleSteadyState(t *testing.T) {
	c := toggleCircuit(t)
	p, inProbs, probs, err := c.SteadyStateProbs(SteadyOptions{
		InputProbs: []float64{0, 0.5}, // position 0 is the FF, ignored
	})
	if err != nil {
		t.Fatalf("SteadyStateProbs: %v", err)
	}
	// Steady state of a toggle with en at 0.5: p(q)=0.5 is the fixed
	// point (0.5·0.5 + 0.5·0.5 = 0.5).
	oi := p.Block.OutputByName("ns_q")
	if oi < 0 {
		t.Fatal("partition lacks ns_q output")
	}
	got := probs[p.Block.Outputs()[oi].Driver]
	if math.Abs(got-0.5) > 1e-6 {
		t.Errorf("steady p(q') = %v, want 0.5", got)
	}
	// The block inputs carry the fixed point: the cut flip-flop's
	// next-state probability and the real input's given one.
	for pos, in := range p.Inputs {
		want := 0.5
		if in.FF >= 0 {
			want = got
		}
		if inProbs[pos] != want {
			t.Errorf("block input %d probability %v, want %v", pos, inProbs[pos], want)
		}
	}
}

// TestSteadyStateObeysBudget: every fixed-point iteration runs under the
// caller's engine options and budget token. An exact build past the
// token's node cap ends the iteration with budget.ErrBDDNodes; a
// cancelled token ends it with budget.ErrCancelled, under the exact
// engine and under approximate propagation, which polls no token itself.
func TestSteadyStateObeysBudget(t *testing.T) {
	c := toggleCircuit(t)
	opts := func(m power.Method, tok *budget.T) SteadyOptions {
		return SteadyOptions{InputProbs: []float64{0, 0.5}, Est: power.Options{Method: m, Budget: tok}}
	}
	tok := budget.New(1, 0)
	if _, _, _, err := c.SteadyStateProbs(opts(power.Exact, tok)); !errors.Is(err, budget.ErrBDDNodes) {
		t.Errorf("node cap 1: err = %v, want budget.ErrBDDNodes", err)
	}
	if tok.BDDTrips() != 1 {
		t.Errorf("node cap 1: %d trips recorded, want 1", tok.BDDTrips())
	}
	for _, m := range []power.Method{power.Exact, power.Approximate} {
		tok := budget.New(0, 0)
		tok.Cancel(nil)
		if _, _, _, err := c.SteadyStateProbs(opts(m, tok)); !errors.Is(err, budget.ErrCancelled) {
			t.Errorf("method %d, cancelled token: err = %v, want budget.ErrCancelled", m, err)
		}
	}
}

// shiftRegister builds a 3-stage shift register: q0' = in, q1' = q0,
// q2' = q1, out = q2. Its s-graph is acyclic, so the cut is empty and
// probabilities are exact.
func shiftRegister(t testing.TB) *Circuit {
	t.Helper()
	n := logic.New("shift")
	q0 := n.AddInput("q0")
	q1 := n.AddInput("q1")
	q2 := n.AddInput("q2")
	in := n.AddInput("in")
	n.MarkOutput("d0", n.AddBuf(in))
	n.MarkOutput("d1", n.AddBuf(q0))
	n.MarkOutput("d2", n.AddBuf(q1))
	n.MarkOutput("out", n.AddBuf(q2))
	c, err := New(n, []int{0, 1, 2}, []int{0, 1, 2}, []string{"q0", "q1", "q2"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestShiftRegisterAcyclic(t *testing.T) {
	c := shiftRegister(t)
	cut := c.Cut(sgraph.DefaultOptions())
	if len(cut) != 0 {
		t.Errorf("shift register cut = %v, want empty", cut)
	}
	p, _, probs, err := c.SteadyStateProbs(SteadyOptions{
		InputProbs: []float64{0, 0, 0, 0.3}, // in at position 3
	})
	if err != nil {
		t.Fatalf("SteadyStateProbs: %v", err)
	}
	if got := p.PseudoInputCount(); got != 0 {
		t.Errorf("pseudo inputs = %d, want 0", got)
	}
	// The block expands out = q2 <- q1 <- q0 <- in, so p(out)=p(in)=0.3.
	oi := p.Block.OutputByName("out")
	got := probs[p.Block.Outputs()[oi].Driver]
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("p(out) = %v, want 0.3", got)
	}
}

func TestPartitionRejectsBrokenCut(t *testing.T) {
	c := toggleCircuit(t)
	if _, err := c.Partition(nil); err == nil {
		t.Error("empty cut on cyclic circuit must fail")
	}
}

// figure7Circuit builds a two-FF circuit where cutting one FF yields a
// block with fewer pseudo-inputs than cutting the other — the point of
// Figure 7's "ideal partitioning".
func figure7Circuit(t testing.TB) *Circuit {
	t.Helper()
	n := logic.New("fig7")
	qa := n.AddInput("qa")
	qb := n.AddInput("qb")
	x := n.AddInput("x")
	y := n.AddInput("y")
	// qa' = qb·x, qb' = qa + y: a 2-cycle between the FFs.
	n.MarkOutput("da", n.AddAnd(qb, x))
	n.MarkOutput("db", n.AddOr(qa, y))
	n.MarkOutput("z", n.AddAnd(qa, qb))
	c, err := New(n, []int{0, 1}, []int{0, 1}, []string{"qa", "qb"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestFigure7PartitionChoices(t *testing.T) {
	c := figure7Circuit(t)
	pa, err := c.Partition([]int{0})
	if err != nil {
		t.Fatalf("Partition(qa): %v", err)
	}
	pb, err := c.Partition([]int{1})
	if err != nil {
		t.Fatalf("Partition(qb): %v", err)
	}
	if pa.PseudoInputCount() != 1 || pb.PseudoInputCount() != 1 {
		t.Errorf("pseudo counts = %d, %d, want 1, 1", pa.PseudoInputCount(), pb.PseudoInputCount())
	}
	// Both are valid; a full cut (both FFs) has more pseudo-inputs —
	// the non-ideal partitioning of Figure 7.
	pFull, err := c.Partition([]int{0, 1})
	if err != nil {
		t.Fatalf("Partition(both): %v", err)
	}
	if pFull.PseudoInputCount() != 2 {
		t.Errorf("full cut pseudo inputs = %d, want 2", pFull.PseudoInputCount())
	}
	if !(pa.PseudoInputCount() < pFull.PseudoInputCount()) {
		t.Error("MFVS-style cut should use fewer pseudo inputs than full cut")
	}
	// And the MFVS cut picks exactly one.
	if cut := c.Cut(sgraph.DefaultOptions()); len(cut) != 1 {
		t.Errorf("MFVS cut = %v, want one FF", cut)
	}
}

func TestFromModel(t *testing.T) {
	m, err := blif.ParseString(`
.model seq
.inputs x
.outputs y
.latch n1 q1 0
.latch n2 q2 0
.names q2 x n1
11 1
.names q1 n2
1 1
.names q1 q2 y
11 1
.end
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := FromModel(m)
	if err != nil {
		t.Fatalf("FromModel: %v", err)
	}
	if len(c.FFs) != 2 {
		t.Fatalf("FFs = %d, want 2", len(c.FFs))
	}
	if len(c.RealInputs) != 1 || len(c.RealOutputs) != 1 {
		t.Errorf("real interface = %d in, %d out; want 1, 1", len(c.RealInputs), len(c.RealOutputs))
	}
	g := c.SGraph()
	// q1 -> q2 (n2 = q1) and q2 -> q1 (n1 = q2·x): a 2-cycle.
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("expected 2-cycle in s-graph")
	}
	cut := c.Cut(sgraph.DefaultOptions())
	if len(cut) != 1 {
		t.Errorf("cut = %v, want one FF", cut)
	}
	probs := make([]float64, c.Comb.NumInputs())
	for _, pos := range c.RealInputs {
		probs[pos] = 0.5
	}
	if _, _, _, err := c.SteadyStateProbs(SteadyOptions{InputProbs: probs, Cut: cut}); err != nil {
		t.Fatalf("SteadyStateProbs: %v", err)
	}
}

func TestSteadyStateConvergence(t *testing.T) {
	// q' = q·x + ¬q·¬x (XNOR feedback): fixed point depends on p(x);
	// at p(x)=0.5 the iteration must converge to 0.5.
	n := logic.New("xnorfb")
	q := n.AddInput("q")
	x := n.AddInput("x")
	nq := n.AddNot(q)
	nx := n.AddNot(x)
	n.MarkOutput("d", n.AddOr(n.AddAnd(q, x), n.AddAnd(nq, nx)))
	c, err := New(n, []int{0}, []int{0}, []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	p, _, probs, err := c.SteadyStateProbs(SteadyOptions{InputProbs: []float64{0, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	oi := p.Block.OutputByName("ns_q")
	got := probs[p.Block.Outputs()[oi].Driver]
	if math.Abs(got-0.5) > 1e-6 {
		t.Errorf("fixed point = %v, want 0.5", got)
	}
}

func TestSteadyStateProbsInRange(t *testing.T) {
	// Probabilities stay in [0,1] across random sequential circuits.
	for seed := int64(0); seed < 8; seed++ {
		c, err := buildRandomSeq(seed)
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, c.Comb.NumInputs())
		for _, pos := range c.RealInputs {
			probs[pos] = 0.3
		}
		_, _, nodeProbs, err := c.SteadyStateProbs(SteadyOptions{InputProbs: probs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, p := range nodeProbs {
			if p < -1e-12 || p > 1+1e-12 {
				t.Fatalf("seed %d: node %d probability %v out of range", seed, i, p)
			}
		}
	}
}

// buildRandomSeq assembles a small random sequential circuit without
// depending on the gen package (import cycle: gen imports seq).
func buildRandomSeq(seed int64) (*Circuit, error) {
	n := logic.New("rnd")
	q0 := n.AddInput("q0")
	q1 := n.AddInput("q1")
	x := n.AddInput("x")
	var a, b logic.NodeID
	switch seed % 4 {
	case 0:
		a, b = n.AddAnd(q1, x), n.AddOr(q0, x)
	case 1:
		a, b = n.AddOr(q1, n.AddNot(x)), n.AddAnd(q0, q1)
	case 2:
		a, b = n.AddNot(q1), n.AddNot(q0)
	default:
		a, b = n.AddAnd(q0, q1, x), n.AddOr(q0, q1, x)
	}
	n.MarkOutput("d0", a)
	n.MarkOutput("d1", b)
	n.MarkOutput("z", n.AddOr(q0, q1))
	return New(n, []int{0, 1}, []int{0, 1}, []string{"q0", "q1"})
}

// TestNextStateNameTaken: a primary output named like a cut flip-flop's
// next-state output does not take over that flip-flop's fixed point.
// Here q' = a·q, so P(q) halves every iteration towards 0, while the
// primary output ns_q = ¬a reads 0.5.
func TestNextStateNameTaken(t *testing.T) {
	m, err := blif.ParseString(".model c\n.inputs a\n.outputs ns_q\n.latch d q 0\n" +
		".names a q d\n11 1\n.names a ns_q\n0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	p, inProbs, _, err := c.SteadyStateProbs(SteadyOptions{InputProbs: []float64{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.NextState) != 1 || p.Block.Outputs()[p.NextState[0]].Name != "ns_q_" || p.Block.OutputByName("ns_q") < 0 {
		t.Fatalf("block outputs %v, next-state outputs %v: want ns_q kept and q's next state as ns_q_",
			p.Block.Outputs(), p.NextState)
	}
	for pos, in := range p.Inputs {
		if in.FF >= 0 && inProbs[pos] > 1e-6 {
			t.Errorf("steady P(q) = %v, want the fixed point 0", inProbs[pos])
		}
	}
}
