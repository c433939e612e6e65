package order

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/logic"
)

// figure10 reconstructs the circuit of the paper's Figure 10: gates P, Q,
// R over inputs x1..x5 where P = x1·x2·x3, Q = x3·x4 and R = P + Q + x5.
// (The figure's exact gate functions are ambiguous in the published
// scan; this reconstruction matches the reported node counts for the
// reverse-topological and topological orders exactly — see
// TestFigure10NodeCounts.)
func figure10() *logic.Network {
	n := logic.New("fig10")
	x1 := n.AddInput("x1")
	x2 := n.AddInput("x2")
	x3 := n.AddInput("x3")
	x4 := n.AddInput("x4")
	x5 := n.AddInput("x5")
	p := n.AddAnd(x1, x2, x3)
	n.SetName(p, "P")
	q := n.AddAnd(x3, x4)
	n.SetName(q, "Q")
	r := n.AddOr(p, q, x5)
	n.SetName(r, "R")
	n.MarkOutput("P", p)
	n.MarkOutput("Q", q)
	n.MarkOutput("R", r)
	return n
}

func TestFirstVisitSequenceFigure10(t *testing.T) {
	n := figure10()
	topo := Topological(n)
	// P (larger fanout cone than Q at the same level) is visited first:
	// x1, x2, x3, then Q adds x4, then R adds x5.
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if topo[i] != want[i] {
			t.Fatalf("Topological = %v, want %v", topo, want)
		}
	}
	rev := ReverseTopological(n)
	wantRev := []int{4, 3, 2, 1, 0}
	for i := range wantRev {
		if rev[i] != wantRev[i] {
			t.Fatalf("ReverseTopological = %v, want %v", rev, wantRev)
		}
	}
}

func TestFigure10NodeCounts(t *testing.T) {
	n := figure10()
	count := func(ord []int) int {
		nb, err := bdd.BuildNetwork(bdd.NewWithOrder(n.NumInputs(), ord), n, nil)
		if err != nil {
			t.Fatalf("BuildNetwork: %v", err)
		}
		return nb.Manager.NodeCount(nb.OutputRefs(n)...)
	}
	rev := count(ReverseTopological(n))
	topo := count(Topological(n))
	disturbed := count([]int{4, 0, 3, 2, 1}) // x5,x1,x4,x3,x2 of Figure 10
	if rev != 7 {
		t.Errorf("reverse-topological node count = %d, want 7 (paper Figure 10)", rev)
	}
	if topo != 11 {
		t.Errorf("topological node count = %d, want 11 (paper Figure 10)", topo)
	}
	if !(rev < disturbed && disturbed < topo) {
		t.Errorf("ordering ranking violated: rev=%d disturbed=%d topo=%d", rev, disturbed, topo)
	}
}

func TestOrdersArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := randomNetwork(rng, 3+rng.Intn(10), 5+rng.Intn(40))
		for name, ord := range map[string][]int{
			"Topological":        Topological(n),
			"ReverseTopological": ReverseTopological(n),
			"Natural":            Natural(n),
			"Random":             Random(n, int64(trial)),
			"DFS":                DFS(n),
		} {
			if len(ord) != n.NumInputs() {
				t.Fatalf("%s: length %d, want %d", name, len(ord), n.NumInputs())
			}
			seen := make([]bool, len(ord))
			for _, v := range ord {
				if v < 0 || v >= len(ord) || seen[v] {
					t.Fatalf("%s: not a permutation: %v", name, ord)
				}
				seen[v] = true
			}
		}
	}
}

func TestUnusedInputsAppended(t *testing.T) {
	n := logic.New("unused")
	a := n.AddInput("a")
	n.AddInput("dangling")
	n.MarkOutput("f", n.AddBuf(a))
	for name, ord := range map[string][]int{
		"Topological": Topological(n),
		"DFS":         DFS(n),
	} {
		if len(ord) != 2 {
			t.Fatalf("%s: missing unused input: %v", name, ord)
		}
	}
}

func TestReverseTopologicalBeatsNaturalOnConvergentCircuits(t *testing.T) {
	// The paper's claim: on convergent, high-fanout circuits the
	// reverse-topological order is much better than arbitrary ones. Use a
	// multiplexer-tree-like convergent circuit and compare on average.
	rng := rand.New(rand.NewSource(23))
	better := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		n := convergentNetwork(rng, 8, 40)
		nbRev, err := bdd.BuildNetwork(bdd.NewWithOrder(n.NumInputs(), ReverseTopological(n)), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		nbRand, err := bdd.BuildNetwork(bdd.NewWithOrder(n.NumInputs(), Random(n, int64(trial*7+1))), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := nbRev.Manager.NodeCount(nbRev.OutputRefs(n)...)
		x := nbRand.Manager.NodeCount(nbRand.OutputRefs(n)...)
		if r <= x {
			better++
		}
	}
	if better < trials*6/10 {
		t.Errorf("reverse-topological no better than random in %d/%d trials", trials-better, trials)
	}
}

func randomNetwork(rng *rand.Rand, numInputs, numGates int) *logic.Network {
	n := logic.New("rand")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(inputName(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 2:
			ids = append(ids, n.AddOr(pick(), pick()))
		default:
			ids = append(ids, n.AddXor(pick(), pick()))
		}
	}
	n.MarkOutput("f", ids[len(ids)-1])
	return n
}

// convergentNetwork builds a circuit whose early gates have large fanout
// cones, mimicking the flattened convergent structure of domino control
// blocks.
func convergentNetwork(rng *rand.Rand, numInputs, numGates int) *logic.Network {
	n := logic.New("conv")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(inputName(i)))
	}
	for g := 0; g < numGates; g++ {
		// Prefer recent nodes as fanins to build convergence.
		pick := func() logic.NodeID {
			k := len(ids)
			return ids[k-1-rng.Intn(min(k, 6))]
		}
		if rng.Intn(2) == 0 {
			ids = append(ids, n.AddAnd(pick(), pick()))
		} else {
			ids = append(ids, n.AddOr(pick(), pick()))
		}
	}
	n.MarkOutput("f", ids[len(ids)-1])
	n.MarkOutput("g", ids[len(ids)-2])
	return n
}

func inputName(i int) string {
	return "i" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func BenchmarkReverseTopological(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	n := randomNetwork(rng, 30, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReverseTopological(n)
	}
}
