package sop

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/budget"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/verify"
)

func TestFactorIntoSimple(t *testing.T) {
	// ab + ac factors as a(b + c): 2 gates instead of 3.
	c := NewCover(3)
	c.Add(cubeFromString(t, "11-"))
	c.Add(cubeFromString(t, "1-1"))
	n := logic.New("fct")
	ins := []logic.NodeID{n.AddInput("a"), n.AddInput("b"), n.AddInput("c")}
	root, err := FactorInto(c, n, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.MarkOutput("f", root)
	if got := n.GateCount(); got != 2 {
		t.Errorf("factored gate count = %d, want 2 (a·(b+c))\n%s", got, n)
	}
	for mask := 0; mask < 8; mask++ {
		asg := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		if n.EvalOutputs(asg)[0] != c.Eval(asg) {
			t.Fatalf("factor changed function at %v", asg)
		}
	}
}

func TestFactorIntoEdgeCases(t *testing.T) {
	n := logic.New("edge")
	ins := []logic.NodeID{n.AddInput("a")}
	empty := NewCover(1)
	r, err := FactorInto(empty, n, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind(r) != logic.KindConst0 {
		t.Error("empty cover must factor to constant 0")
	}
	taut := NewCover(1)
	taut.Add(NewCube(1))
	r2, err := FactorInto(taut, n, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind(r2) != logic.KindConst1 {
		t.Error("tautology must factor to constant 1")
	}
}

func TestFactorPreservesFunctionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		vars := 3 + rng.Intn(5)
		c := NewCover(vars)
		for k := 0; k < 1+rng.Intn(12); k++ {
			cube := NewCube(vars)
			for v := 0; v < vars; v++ {
				switch rng.Intn(3) {
				case 0:
					cube = cube.WithLiteral(v, Pos)
				case 1:
					cube = cube.WithLiteral(v, Neg)
				}
			}
			c.Add(cube)
		}
		n := logic.New("p")
		ins := make([]logic.NodeID, vars)
		for v := range ins {
			ins[v] = n.AddInput(inName(v))
		}
		root, err := FactorInto(c, n, ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.MarkOutput("f", root)
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		asg := make([]bool, vars)
		for mask := 0; mask < 1<<uint(vars); mask++ {
			for v := 0; v < vars; v++ {
				asg[v] = mask&(1<<uint(v)) != 0
			}
			if n.EvalOutputs(asg)[0] != c.Eval(asg) {
				t.Fatalf("trial %d: factor wrong at %v", trial, asg)
			}
		}
	}
}

func TestFactorNetworkPreservesAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	shrunk := 0
	for trial := 0; trial < 10; trial++ {
		n := gen.Generate(gen.Params{
			Name: "fn", Inputs: 8 + rng.Intn(6), Outputs: 2 + rng.Intn(3),
			Gates: 40 + rng.Intn(60), Seed: int64(trial * 3), OrProb: 0.6,
		})
		f, err := FactorNetwork(n, 12, nil)
		if err != nil {
			t.Fatalf("trial %d: FactorNetwork: %v", trial, err)
		}
		if err := verify.Check(n, f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if f.NumNodes() < n.NumNodes() {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Error("resynthesis never shrank any circuit (suspicious)")
	}
}

func TestFactorNetworkKeepsBigCones(t *testing.T) {
	// With maxSupport 0 nothing collapses; the result is a structural
	// copy (post-Optimize).
	n := gen.Generate(gen.Params{Name: "keep", Inputs: 10, Outputs: 3, Gates: 40, Seed: 9})
	c, err := FactorNetwork(n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(n, c); err != nil {
		t.Fatal(err)
	}
}

func TestFactorNetworkRemovesRedundancy(t *testing.T) {
	// A small cone with heavy redundancy: ab + āc + bc (bc is the
	// redundant consensus term) and ab + b·buf(a) (= ab, duplicated).
	n := logic.New("redund")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	ab := n.AddAnd(a, b)
	nac := n.AddAnd(n.AddNot(a), c)
	cons := n.AddAnd(b, c)
	n.MarkOutput("f", n.AddOr(ab, nac, cons))
	n.MarkOutput("g", n.AddOr(n.AddAnd(a, b), n.AddAnd(b, n.AddBuf(a))))
	f, err := FactorNetwork(n, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(n, f); err != nil {
		t.Fatal(err)
	}
	if f.GateCount() >= n.GateCount() {
		t.Errorf("resynthesis did not shrink: %d -> %d", n.GateCount(), f.GateCount())
	}
}

// TestFactorNetworkHonoursToken: the pass builds its BDDs under the
// caller's token, so a cancelled token and an exceeded node budget both
// come back as errors instead of running to completion.
func TestFactorNetworkHonoursToken(t *testing.T) {
	n := gen.Generate(gen.Params{Name: "tok", Inputs: 12, Outputs: 4, Gates: 80, Seed: 5, OrProb: 0.6})
	cancelled := budget.New(0, 0)
	cancelled.Cancel(nil)
	if _, err := FactorNetwork(n, 14, cancelled); !errors.Is(err, budget.ErrCancelled) {
		t.Errorf("cancelled token: err = %v, want ErrCancelled", err)
	}
	tight := budget.New(8, 0)
	if _, err := FactorNetwork(n, 14, tight); !errors.Is(err, budget.ErrBDDNodes) {
		t.Errorf("8-node budget: err = %v, want ErrBDDNodes", err)
	}
	if tight.BDDTrips() != 1 {
		t.Errorf("8-node budget: %d trips, want 1", tight.BDDTrips())
	}
}

// TestFromBDDPollsToken: ISOP polls the token once per recursive call,
// so it stops even when every BDD operation it issues hits the caches
// and creates no node (a repeat extraction of the same function).
func TestFromBDDPollsToken(t *testing.T) {
	m := bdd.New(10)
	f := bdd.False
	for v := 0; v < 10; v++ {
		f = m.Xor(f, m.Var(v))
	}
	if _, err := FromBDD(m, f, nil); err != nil {
		t.Fatal(err)
	}
	tok := budget.New(0, 0)
	tok.Cancel(nil)
	c, err := FromBDD(m, f, tok)
	if !errors.Is(err, budget.ErrCancelled) || c != nil {
		t.Fatalf("cancelled token: cover %v, err %v; want nil, ErrCancelled", c, err)
	}
}

// TestFactorIntoPollsToken: factoring polls the token once per
// recursive call, so a cancelled token ends it with ErrCancelled.
func TestFactorIntoPollsToken(t *testing.T) {
	m := bdd.New(10)
	f := bdd.False
	for v := 0; v < 10; v++ {
		f = m.Xor(f, m.Var(v))
	}
	c, err := FromBDD(m, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := logic.New("parity")
	ins := make([]logic.NodeID, 10)
	for i := range ins {
		ins[i] = n.AddInput(inName(i))
	}
	if _, err := FactorInto(c, n, ins, nil); err != nil {
		t.Fatal(err)
	}
	tok := budget.New(0, 0)
	tok.Cancel(nil)
	if r, err := FactorInto(c, n, ins, tok); !errors.Is(err, budget.ErrCancelled) || r != logic.InvalidNode {
		t.Fatalf("cancelled token: root %v, err %v; want InvalidNode, ErrCancelled", r, err)
	}
}

func inName(i int) string {
	return "f" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}
