package verify

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
)

func TestEquivalentIdentity(t *testing.T) {
	n := gen.Generate(gen.Params{Name: "id", Inputs: 30, Outputs: 6, Gates: 120, Seed: 1})
	res, err := Equivalent(n, n.Clone())
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !res.Equivalent {
		t.Error("network not equivalent to its clone")
	}
}

func TestEquivalentAfterOptimize(t *testing.T) {
	// Optimize is a rewrite; CEC must prove it for a 30-input circuit,
	// beyond truth-table reach.
	n := gen.Generate(gen.Params{Name: "opt", Inputs: 30, Outputs: 8, Gates: 200, Seed: 2})
	if err := Check(n, n.Optimize()); err != nil {
		t.Errorf("Optimize broke function: %v", err)
	}
}

func TestEquivalentAfterPhaseAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := flow.Prepare(gen.Generate(gen.Params{
			Name: "ph", Inputs: 25 + rng.Intn(10), Outputs: 3 + rng.Intn(5),
			Gates: 80 + rng.Intn(120), Seed: int64(trial), OrProb: 0.6,
		}))
		asg := make(phase.Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		r, err := phase.Apply(n, asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(n, r.Reconstructed()); err != nil {
			t.Errorf("trial %d: phase assignment %s broke function: %v", trial, asg, err)
		}
	}
}

func TestDetectsDifference(t *testing.T) {
	a := logic.New("a")
	x := a.AddInput("x")
	y := a.AddInput("y")
	a.MarkOutput("f", a.AddAnd(x, y))
	b := logic.New("b")
	x2 := b.AddInput("x")
	y2 := b.AddInput("y")
	b.MarkOutput("f", b.AddOr(x2, y2))
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if res.Equivalent {
		t.Fatal("AND declared equivalent to OR")
	}
	if res.FailingOutput != "f" {
		t.Errorf("failing output = %q", res.FailingOutput)
	}
	// The counterexample must actually distinguish them.
	va := a.EvalOutputs(res.Counterexample)
	vb := b.EvalOutputs(res.Counterexample)
	if va[0] == vb[0] {
		t.Errorf("counterexample %v does not distinguish the networks", res.Counterexample)
	}
}

// TestDetectsSubtleDifference: two 24-input, 150-gate networks that
// differ in one gate, gate 51, three levels deep, whose AND/OR flip
// reaches output f (of the seed-9 stream's gates, only flips of 7, 20,
// 30, 51 and 149 do). CEC must report f with a counterexample that
// tells the networks apart; the exhaustive oracle confirms they differ.
func TestDetectsSubtleDifference(t *testing.T) {
	const flipped = 51
	build := func(flip bool) *logic.Network {
		n := logic.New("big")
		var ids []logic.NodeID
		for i := 0; i < 24; i++ {
			ids = append(ids, n.AddInput(name(i)))
		}
		rng := rand.New(rand.NewSource(9))
		for g := 0; g < 150; g++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			and := rng.Intn(2) == 0
			if g == flipped && flip {
				and = !and
			}
			if and {
				ids = append(ids, n.AddAnd(a, b))
			} else {
				ids = append(ids, n.AddOr(a, b))
			}
		}
		n.MarkOutput("f", ids[len(ids)-1])
		return n
	}
	a, b := build(false), build(true)
	if !differs(t, a, b) {
		t.Fatalf("setup: flipping gate %d does not change f", flipped)
	}
	res, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if res.Equivalent {
		t.Fatal("CEC missed a one-gate difference")
	}
	if res.FailingOutput != "f" {
		t.Errorf("failing output = %q", res.FailingOutput)
	}
	if va, vb := a.EvalOutputs(res.Counterexample), b.EvalOutputs(res.Counterexample); va[0] == vb[0] {
		t.Errorf("counterexample %v does not distinguish the networks", res.Counterexample)
	}
}

// lanePatterns[i] holds bit i of the lane index in each of a word's 64
// lanes: the low six input bits of the minterms base..base+63 when base
// is a multiple of 64.
var lanePatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// differs is these tests' oracle, which shares no code with BDDs: it
// evaluates a and b on every input minterm, 64 lanes at a time through
// EvalWide, matching inputs and outputs by name, and reports whether
// any output differs.
func differs(t *testing.T, a, b *logic.Network) bool {
	t.Helper()
	k := a.NumInputs()
	if k != b.NumInputs() || k > 30 {
		t.Fatalf("oracle: %d and %d inputs", k, b.NumInputs())
	}
	perm := make([]int, k) // b's position of a's input i
	for i, id := range a.Inputs() {
		if perm[i] = slices.Index(b.Inputs(), b.InputByName(a.Node(id).Name)); perm[i] < 0 {
			t.Fatalf("oracle: input %q missing in the second network", a.Node(id).Name)
		}
	}
	lanes := ^uint64(0)
	if k < 6 {
		lanes = 1<<(1<<k) - 1
	}
	aIn, bIn := make([]uint64, k), make([]uint64, k)
	var aw, bw []uint64
	for base := 0; base < 1<<k; base += 64 {
		for i := range aIn {
			switch {
			case i < len(lanePatterns):
				aIn[i] = lanePatterns[i]
			case base>>i&1 == 1:
				aIn[i] = ^uint64(0)
			default:
				aIn[i] = 0
			}
			bIn[perm[i]] = aIn[i]
		}
		aw, bw = a.EvalWide(aIn, aw), b.EvalWide(bIn, bw)
		for _, o := range a.Outputs() {
			j := b.OutputByName(o.Name)
			if j < 0 {
				t.Fatalf("oracle: output %q missing in the second network", o.Name)
			}
			if (aw[o.Driver]^bw[b.Outputs()[j].Driver])&lanes != 0 {
				return true
			}
		}
	}
	return false
}

// redeclared copies n with its inputs declared in the order perm (the
// copy's input j is n's input perm[j], under the same name); gates and
// outputs are copied unchanged, except that when flip is a gate node
// the copy turns that AND into an OR or that OR into an AND.
func redeclared(n *logic.Network, perm []int, flip logic.NodeID) *logic.Network {
	out := logic.New(n.Name)
	ids := make([]logic.NodeID, n.NumNodes())
	for _, p := range perm {
		in := n.Inputs()[p]
		ids[in] = out.AddInput(n.Node(in).Name)
	}
	for i := 0; i < n.NumNodes(); i++ {
		nd := n.Node(logic.NodeID(i))
		kind := nd.Kind
		switch kind {
		case logic.KindInput:
			continue
		case logic.KindConst0, logic.KindConst1:
			ids[i] = out.AddConst(kind == logic.KindConst1)
			continue
		case logic.KindAnd:
			if logic.NodeID(i) == flip {
				kind = logic.KindOr
			}
		case logic.KindOr:
			if logic.NodeID(i) == flip {
				kind = logic.KindAnd
			}
		}
		fanins := make([]logic.NodeID, len(nd.Fanins))
		for k, f := range nd.Fanins {
			fanins[k] = ids[f]
		}
		ids[i] = out.AddGate(kind, fanins...)
	}
	for _, o := range n.Outputs() {
		out.MarkOutput(o.Name, ids[o.Driver])
	}
	return out
}

// TestEquivalentReorderedInputs: inputs are matched by name, so a second
// network that declares its inputs in another order is proven
// equivalent, and when it differs, the counterexample — indexed by the
// first network's inputs — distinguishes the two networks once it is
// mapped onto the second network's inputs by name.
func TestEquivalentReorderedInputs(t *testing.T) {
	a := gen.Generate(gen.Params{Name: "reord", Inputs: 14, Outputs: 4, Gates: 70, Seed: 11, OrProb: 0.4})
	rng := rand.New(rand.NewSource(12))
	perm := rng.Perm(a.NumInputs())
	copied := redeclared(a, perm, -1)
	// Precondition: matching inputs by position would not prove the copy.
	x := make([]bool, a.NumInputs())
	differsByPosition := false
	for m := 0; m < 1<<a.NumInputs() && !differsByPosition; m++ {
		for i := range x {
			x[i] = m>>i&1 == 1
		}
		differsByPosition = !slices.Equal(a.EvalOutputs(x), copied.EvalOutputs(x))
	}
	if !differsByPosition {
		t.Fatal("the copy computes the original's functions even with its inputs matched by position")
	}
	res, err := Equivalent(a, copied)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !res.Equivalent {
		t.Fatalf("reordered copy not proven equivalent (output %q)", res.FailingOutput)
	}
	differing := 0
	for id := 0; id < a.NumNodes() && differing < 5; id++ {
		if k := a.Kind(logic.NodeID(id)); k != logic.KindAnd && k != logic.KindOr {
			continue
		}
		b := redeclared(a, perm, logic.NodeID(id))
		if !differs(t, a, b) {
			continue // the flipped gate is masked at every output
		}
		differing++
		res, err := Equivalent(a, b)
		if err != nil {
			t.Fatalf("gate %d: Equivalent: %v", id, err)
		}
		if res.Equivalent {
			t.Fatalf("gate %d: flipped copy declared equivalent", id)
		}
		cexB := make([]bool, b.NumInputs())
		for pos, in := range b.Inputs() {
			cexB[pos] = res.Counterexample[perm[pos]]
			if a.Inputs()[perm[pos]] != a.InputByName(b.Node(in).Name) {
				t.Fatalf("input %d of the copy is not input %d of the original", pos, perm[pos])
			}
		}
		oa := a.OutputByName(res.FailingOutput)
		ob := b.OutputByName(res.FailingOutput)
		if va, vb := a.EvalOutputs(res.Counterexample)[oa], b.EvalOutputs(cexB)[ob]; va == vb {
			t.Errorf("gate %d: counterexample %v does not distinguish output %q", id, res.Counterexample, res.FailingOutput)
		}
	}
	if differing == 0 {
		t.Fatal("no flipped gate changed the function")
	}
}

// TestInterfaceMismatch: each interface error names what differs.
func TestInterfaceMismatch(t *testing.T) {
	// net has the named inputs and drives every named output from the
	// first input.
	net := func(inputs []string, outputs ...string) *logic.Network {
		n := logic.New("n")
		for _, name := range inputs {
			n.AddInput(name)
		}
		for _, name := range outputs {
			n.MarkOutput(name, n.Inputs()[0])
		}
		return n
	}
	a := net([]string{"x"}, "f")
	for _, c := range []struct {
		b    *logic.Network
		want string
	}{
		{net([]string{"x", "y"}, "f"), "input count mismatch"},
		{net([]string{"x"}, "f", "g"), "output count mismatch"},
		{net([]string{"z"}, "f"), `input "z" missing in first network`},
		{net([]string{"x"}, "g"), `output "f" missing in second network`},
	} {
		if _, err := Equivalent(a, c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Equivalent = %v, want an error containing %q", err, c.want)
		}
	}
}

func name(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}

func BenchmarkCEC(b *testing.B) {
	n := gen.Generate(gen.Params{Name: "cec", Inputs: 40, Outputs: 10, Gates: 400, Seed: 5})
	o := n.Optimize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Check(n, o); err != nil {
			b.Fatal(err)
		}
	}
}
