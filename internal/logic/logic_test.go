package logic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildExample returns the running example from the paper's Figure 3:
// f = not(a+b) or (c·d), g = (a+b) or (c·d), with explicit inverters.
func buildExample(t testing.TB) *Network {
	t.Helper()
	n := New("fig3")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	ab := n.AddOr(a, b)
	cd := n.AddAnd(c, d)
	nab := n.AddNot(ab)
	f := n.AddOr(nab, cd)
	g := n.AddOr(ab, cd)
	n.MarkOutput("f", f)
	n.MarkOutput("g", g)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

// sameFunction compares a and b on every input minterm, matching inputs
// and outputs by name, and describes the first difference. The networks
// these tests compare have at most 7 inputs. (verify.Check is the
// repository's equivalence check, but verify imports logic.)
func sameFunction(a, b *Network) error {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return fmt.Errorf("interfaces differ: %d vs %d inputs, %d vs %d outputs",
			a.NumInputs(), b.NumInputs(), a.NumOutputs(), b.NumOutputs())
	}
	perm := make([]int, a.NumInputs()) // b's position of a's input i
	for i, id := range a.Inputs() {
		if perm[i] = slices.Index(b.Inputs(), b.InputByName(a.Node(id).Name)); perm[i] < 0 {
			return fmt.Errorf("input %q missing in the second network", a.Node(id).Name)
		}
	}
	aIn, bIn := make([]bool, a.NumInputs()), make([]bool, b.NumInputs())
	for m := 0; m < 1<<a.NumInputs(); m++ {
		for i := range aIn {
			aIn[i] = m>>i&1 == 1
			bIn[perm[i]] = aIn[i]
		}
		av, bv := a.EvalOutputs(aIn), b.EvalOutputs(bIn)
		for i, o := range a.Outputs() {
			j := b.OutputByName(o.Name)
			if j < 0 {
				return fmt.Errorf("output %q missing in the second network", o.Name)
			}
			if av[i] != bv[j] {
				return fmt.Errorf("output %q differs at minterm %d", o.Name, m)
			}
		}
	}
	return nil
}

func TestNetworkBasics(t *testing.T) {
	n := buildExample(t)
	if got, want := n.NumInputs(), 4; got != want {
		t.Errorf("NumInputs = %d, want %d", got, want)
	}
	if got, want := n.NumOutputs(), 2; got != want {
		t.Errorf("NumOutputs = %d, want %d", got, want)
	}
	if got, want := n.NumNodes(), 9; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	if !n.HasInverters() {
		t.Error("HasInverters = false, want true")
	}
	if got := n.InputByName("c"); n.Kind(got) != KindInput || n.Node(got).Name != "c" {
		t.Errorf("InputByName(c) resolved to wrong node %d", got)
	}
	if got := n.InputByName("zz"); got != InvalidNode {
		t.Errorf("InputByName(zz) = %d, want InvalidNode", got)
	}
	if got := n.OutputByName("g"); got != 1 {
		t.Errorf("OutputByName(g) = %d, want 1", got)
	}
	if got := n.OutputByName("zz"); got != -1 {
		t.Errorf("OutputByName(zz) = %d, want -1", got)
	}
}

func TestEval(t *testing.T) {
	n := buildExample(t)
	cases := []struct {
		in   [4]bool // a b c d
		f, g bool
	}{
		{[4]bool{false, false, false, false}, true, false},
		{[4]bool{true, false, false, false}, false, true},
		{[4]bool{false, false, true, true}, true, true},
		{[4]bool{true, true, true, true}, true, true},
		{[4]bool{false, true, true, false}, false, true},
	}
	for _, c := range cases {
		outs := n.EvalOutputs(c.in[:])
		if outs[0] != c.f || outs[1] != c.g {
			t.Errorf("Eval(%v): got f=%v g=%v, want f=%v g=%v", c.in, outs[0], outs[1], c.f, c.g)
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	n := buildExample(t)
	lv := n.Levels()
	// Inputs at level 0, or(a,b)/and(c,d) at 1, not at 2, f at 3, g at 2.
	if lv[4] != 1 || lv[5] != 1 {
		t.Errorf("first-level gates: got %d,%d want 1,1", lv[4], lv[5])
	}
	if got, want := lv[n.Outputs()[0].Driver], 3; got != want {
		t.Errorf("level of f's driver = %d, want %d", got, want)
	}
}

func TestFaninCone(t *testing.T) {
	n := buildExample(t)
	fIdx := n.Outputs()[0].Driver
	cone := n.FaninCone(fIdx)
	count := 0
	for _, b := range cone {
		if b {
			count++
		}
	}
	// f's cone: a,b,c,d, or(a,b), and(c,d), not, f = 8 nodes.
	if count != 8 {
		t.Errorf("f cone size = %d, want 8", count)
	}
}

func TestConeOverlap(t *testing.T) {
	n := buildExample(t)
	cones := n.OutputCones()
	got := ConeOverlap(cones[0], cones[1])
	// f cone: 8 nodes, g cone: 7 nodes, intersection: a,b,c,d,or,and = 6.
	want := 6.0 / 15.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ConeOverlap = %v, want %v", got, want)
	}
	if ConeOverlap(cones[0], cones[0]) != 0.5 {
		t.Errorf("self overlap should be 0.5")
	}
}

// TestOutputConesMatchMembershipScan is the bitset cones' property
// test: on random networks spanning several words, every OutputCones
// bitset holds exactly FaninCone's members (so the sizes agree), and
// ConeOverlap equals the ratio of plain []bool counts bit for bit.
func TestOutputConesMatchMembershipScan(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0E))
	for trial := 0; trial < 100; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(12), 1+rng.Intn(300))
		for i := n.NumOutputs(); i < 8; i++ {
			n.MarkOutput(outputName(i), NodeID(rng.Intn(n.NumNodes())))
		}
		cones := n.OutputCones()
		member := make([][]bool, len(cones))
		size := make([]int, len(cones))
		for i, o := range n.Outputs() {
			member[i] = n.FaninCone(o.Driver)
			if len(cones[i]) != (n.NumNodes()+63)/64 {
				t.Fatalf("trial %d output %d: %d words for %d nodes", trial, i, len(cones[i]), n.NumNodes())
			}
			for id, in := range member[i] {
				if in {
					size[i]++
				}
				if got := cones[i][id/64]>>(uint(id)%64)&1 == 1; got != in {
					t.Fatalf("trial %d output %d node %d: bitset %v, FaninCone %v", trial, i, id, got, in)
				}
			}
			bitsSet := 0
			for _, w := range cones[i] {
				bitsSet += bits.OnesCount64(w)
			}
			if bitsSet != size[i] {
				t.Fatalf("trial %d output %d: %d bits set, cone size %d", trial, i, bitsSet, size[i])
			}
		}
		for i := range cones {
			for j := range cones {
				inter := 0
				for id := range member[i] {
					if member[i][id] && member[j][id] {
						inter++
					}
				}
				want := float64(inter) / float64(size[i]+size[j])
				if got := ConeOverlap(cones[i], cones[j]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: O(%d,%d) = %v, want %v", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestFanoutConeSizes(t *testing.T) {
	n := buildExample(t)
	sizes := n.FanoutConeSizes()
	// Output f (node 7) and g (node 8) have fanout cone just themselves.
	if sizes[7] != 1 || sizes[8] != 1 {
		t.Errorf("output fanout cones = %d,%d, want 1,1", sizes[7], sizes[8])
	}
	// a reaches or(a,b), not, f, g and itself = 5.
	if sizes[0] != 5 {
		t.Errorf("fanout cone of a = %d, want 5", sizes[0])
	}
	// c reaches and(c,d), f, g and itself = 4.
	if sizes[2] != 4 {
		t.Errorf("fanout cone of c = %d, want 4", sizes[2])
	}
}

func TestCloneIndependence(t *testing.T) {
	n := buildExample(t)
	c := n.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	c.AddInput("extra")
	c.MarkOutput("h", 0)
	if n.NumInputs() != 4 || n.NumOutputs() != 2 {
		t.Error("mutating clone affected original")
	}
	if err := sameFunction(n, buildExample(t)); err != nil {
		t.Errorf("the clone's original differs from a rebuilt copy: %v", err)
	}
}

func TestValidateCatchesArity(t *testing.T) {
	n := New("bad")
	a := n.AddInput("a")
	n.AddNot(a)
	// Corrupt: force a second fanin onto the NOT node.
	n.nodes[1].Fanins = append(n.nodes[1].Fanins, a)
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted NOT with two fanins")
	}
}

// TestValidateNamesLeastBadIndex: with several corrupt index entries,
// Validate names the least one on every call, whatever the map order.
func TestValidateNamesLeastBadIndex(t *testing.T) {
	n := New("bad")
	for _, name := range []string{"d", "b", "c", "a"} {
		n.AddInput(name)
	}
	for id := 1; id < 4; id++ { // b, c and a become constants
		n.nodes[id].Kind = KindConst0
	}
	for range 30 {
		if err := n.Validate(); err == nil || !strings.Contains(err.Error(), `"a"`) {
			t.Fatalf("Validate = %v, want the error to name input a", err)
		}
	}
}

func TestRebuildDropsDangling(t *testing.T) {
	n := buildExample(t)
	// Add dangling logic.
	x := n.AddAnd(0, 1)
	n.AddNot(x)
	r := n.Rebuild()
	if r.NumNodes() != 9 {
		t.Errorf("Rebuild kept %d nodes, want 9", r.NumNodes())
	}
	if err := sameFunction(n, r); err != nil {
		t.Errorf("Rebuild changed function: %v", err)
	}
}

func TestOptimizeConstantFolding(t *testing.T) {
	n := New("const")
	a := n.AddInput("a")
	one := n.AddConst(true)
	zero := n.AddConst(false)
	n.MarkOutput("and1", n.AddAnd(a, one))           // = a
	n.MarkOutput("and0", n.AddAnd(a, zero))          // = 0
	n.MarkOutput("or0", n.AddOr(a, zero))            // = a
	n.MarkOutput("or1", n.AddOr(a, one))             // = 1
	n.MarkOutput("aa", n.AddAnd(a, a))               // = a
	n.MarkOutput("axa", n.AddXor(a, a))              // = 0
	n.MarkOutput("axnota", n.AddXor(a, n.AddNot(a))) // = 1
	na := n.AddNot(a)
	n.MarkOutput("contradiction", n.AddAnd(a, na)) // = 0
	n.MarkOutput("tautology", n.AddOr(a, na))      // = 1
	n.MarkOutput("dblneg", n.AddNot(n.AddNot(a)))  // = a

	o := n.Optimize()
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := sameFunction(n, o); err != nil {
		t.Fatalf("Optimize changed function: %v", err)
	}
	// Everything should fold away: only input a, const0, const1 and one
	// inverter (for nothing, actually even that should be gone).
	if o.GateCount() != 0 {
		t.Errorf("Optimize left %d gates, want 0\n%s", o.GateCount(), o)
	}
}

func TestOptimizeCSE(t *testing.T) {
	n := New("cse")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddAnd(a, b)
	y := n.AddAnd(b, a) // same function, different fanin order
	n.MarkOutput("x", x)
	n.MarkOutput("y", y)
	o := n.Optimize()
	if got := o.CountKind(KindAnd); got != 1 {
		t.Errorf("CSE left %d AND gates, want 1", got)
	}
}

// randomNetwork builds a random AND/OR/NOT/XOR network for property tests.
func randomNetwork(rng *rand.Rand, numInputs, numGates int) *Network {
	n := New("rand")
	ids := make([]NodeID, 0, numInputs+numGates)
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(inputName(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() NodeID { return ids[rng.Intn(len(ids))] }
		var id NodeID
		switch rng.Intn(6) {
		case 0:
			id = n.AddNot(pick())
		case 1:
			id = n.AddXor(pick(), pick())
		case 2, 3:
			id = n.AddAnd(pick(), pick())
			if rng.Intn(3) == 0 {
				id = n.AddAnd(id, pick(), pick())
			}
		default:
			id = n.AddOr(pick(), pick())
			if rng.Intn(3) == 0 {
				id = n.AddOr(id, pick(), pick())
			}
		}
		ids = append(ids, id)
	}
	// Mark the last few nodes as outputs.
	numOut := 1 + rng.Intn(4)
	for i := 0; i < numOut; i++ {
		n.MarkOutput(outputName(i), ids[len(ids)-1-i])
	}
	return n
}

func inputName(i int) string  { return "i" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func outputName(i int) string { return "o" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestOptimizePreservesFunctionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(6), 1+rng.Intn(30))
		o := n.Optimize()
		if err := o.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v\n%s", trial, err, o)
		}
		if err := sameFunction(n, o); err != nil {
			t.Fatalf("trial %d: Optimize changed function (%v)\nbefore:\n%s\nafter:\n%s", trial, err, n, o)
		}
		if o.NumNodes() > n.NumNodes() {
			t.Fatalf("trial %d: Optimize grew network %d -> %d", trial, n.NumNodes(), o.NumNodes())
		}
	}
}

func TestDecomposeXorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(25))
		d := n.DecomposeXor()
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		if d.CountKind(KindXor) != 0 {
			t.Fatalf("trial %d: DecomposeXor left XOR gates", trial)
		}
		if err := sameFunction(n, d); err != nil {
			t.Fatalf("trial %d: DecomposeXor changed function: %v", trial, err)
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := randomNetwork(rng, 16, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Optimize()
	}
}

func BenchmarkFanoutConeSizes(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	n := randomNetwork(rng, 16, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.FanoutConeSizes()
	}
}

func TestStringDump(t *testing.T) {
	n := buildExample(t)
	s := n.String()
	for _, want := range []string{"network fig3", "input", "or", "and", "not", "outputs: f="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	n := New("p")
	a := n.AddInput("a")
	expectPanic("duplicate input", func() { n.AddInput("a") })
	expectPanic("empty and", func() { n.AddAnd() })
	expectPanic("fanin out of range", func() { n.AddNot(NodeID(99)) })
	expectPanic("AddGate buf arity", func() { n.AddGate(KindBuf, a, a) })
	expectPanic("AddGate input kind", func() { n.AddGate(KindInput) })
	n.MarkOutput("f", a)
	expectPanic("duplicate output", func() { n.MarkOutput("f", a) })
	expectPanic("bad output driver", func() { n.MarkOutput("g", NodeID(99)) })
	expectPanic("eval arity", func() { n.Eval(nil, nil) })
	expectPanic("cone length mismatch", func() { ConeOverlap(make([]uint64, 1), make([]uint64, 2)) })
}

func TestSetNameAndKindString(t *testing.T) {
	n := New("k")
	a := n.AddInput("a")
	g := n.AddBuf(a)
	n.SetName(g, "buffed")
	if n.Node(g).Name != "buffed" {
		t.Error("SetName failed")
	}
	for k := KindInput; k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty String", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still render")
	}
}
