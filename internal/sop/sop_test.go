package sop

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

func cubeFromString(t testing.TB, s string) Cube {
	t.Helper()
	c := NewCube(len(s))
	for i, ch := range s {
		switch ch {
		case '1':
			c = c.WithLiteral(i, Pos)
		case '0':
			c = c.WithLiteral(i, Neg)
		case '-':
		default:
			t.Fatalf("bad cube char %q", ch)
		}
	}
	return c
}

func TestCubeBasics(t *testing.T) {
	c := cubeFromString(t, "1-0")
	if c.Literal(0) != Pos || c.Literal(1) != DontCare || c.Literal(2) != Neg {
		t.Fatalf("literals wrong: %s", c)
	}
	if c.String() != "1-0" {
		t.Errorf("String = %q", c.String())
	}
	if !c.Eval([]bool{true, false, false}) {
		t.Error("eval true case failed")
	}
	if c.Eval([]bool{true, true, true}) {
		t.Error("eval false case passed")
	}
}

func TestISOPFromBDD(t *testing.T) {
	m := bdd.New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	cover, err := FromBDD(m, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ISOP of ab + āc is exactly those two cubes.
	if len(cover.Cubes) != 2 {
		t.Errorf("ISOP cubes = %d, want 2:\n%s", len(cover.Cubes), cover)
	}
	asg := make([]bool, 3)
	for mask := 0; mask < 8; mask++ {
		for v := 0; v < 3; v++ {
			asg[v] = mask&(1<<uint(v)) != 0
		}
		if cover.Eval(asg) != m.Eval(f, asg) {
			t.Fatalf("ISOP wrong at %v", asg)
		}
	}
}

func TestISOPMatchesBDDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		vars := 3 + rng.Intn(4)
		m := bdd.New(vars)
		f := randomRef(rng, m)
		cover, err := FromBDD(m, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		asg := make([]bool, vars)
		for mask := 0; mask < 1<<uint(vars); mask++ {
			for v := 0; v < vars; v++ {
				asg[v] = mask&(1<<uint(v)) != 0
			}
			if cover.Eval(asg) != m.Eval(f, asg) {
				t.Fatalf("trial %d: ISOP differs from BDD at %v", trial, asg)
			}
		}
	}
}

// TestISOPCoverIsPrimeAndIrredundant checks, with BDDs, the property
// that makes a two-level minimizer after ISOP a no-op: on random
// functions every FromBDD cover equals its function, each cube is a
// prime implicant (dropping any literal leaves the onset) and no cube is
// covered by the union of the others.
func TestISOPCoverIsPrimeAndIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		m := bdd.New(3 + rng.Intn(6))
		f := randomRef(rng, m)
		cover, err := FromBDD(m, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		cubes := make([]bdd.Ref, len(cover.Cubes))
		union := bdd.False
		for i, cube := range cover.Cubes {
			cubes[i] = cubeRef(m, cube)
			union = m.Or(union, cubes[i])
		}
		if union != f {
			t.Fatalf("trial %d: cover differs from f:\n%s", trial, cover)
		}
		for i, cube := range cover.Cubes {
			for v := 0; v < cover.NumVars; v++ {
				if cube.Literal(v) == DontCare {
					continue
				}
				if wider := cubeRef(m, cube.WithLiteral(v, DontCare)); m.And(wider, m.Not(f)) == bdd.False {
					t.Fatalf("trial %d: cube %s is not prime (variable %d is removable)", trial, cube, v)
				}
			}
			rest := bdd.False
			for k, r := range cubes {
				if k != i {
					rest = m.Or(rest, r)
				}
			}
			if m.And(cubes[i], m.Not(rest)) == bdd.False {
				t.Fatalf("trial %d: cube %s is redundant in\n%s", trial, cube, cover)
			}
		}
	}
}

// cubeRef returns the BDD of one cube.
func cubeRef(m *bdd.Manager, cube Cube) bdd.Ref {
	r := bdd.True
	for v := 0; v < m.NumVars(); v++ {
		switch cube.Literal(v) {
		case Pos:
			r = m.And(r, m.Var(v))
		case Neg:
			r = m.And(r, m.NVar(v))
		}
	}
	return r
}

func TestEmptyCover(t *testing.T) {
	m := bdd.New(2)
	c, err := FromBDD(m, bdd.False, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cubes) != 0 {
		t.Fatalf("ISOP of constant 0 has cubes:\n%s", c)
	}
	if c.Eval([]bool{true, true}) {
		t.Error("empty cover must be constant 0")
	}
}

func randomRef(rng *rand.Rand, m *bdd.Manager) bdd.Ref {
	refs := []bdd.Ref{}
	for v := 0; v < m.NumVars(); v++ {
		refs = append(refs, m.Var(v))
	}
	for i := 0; i < 12; i++ {
		x := refs[rng.Intn(len(refs))]
		y := refs[rng.Intn(len(refs))]
		switch rng.Intn(4) {
		case 0:
			refs = append(refs, m.And(x, y))
		case 1:
			refs = append(refs, m.Or(x, y))
		case 2:
			refs = append(refs, m.Xor(x, y))
		default:
			refs = append(refs, m.Not(x))
		}
	}
	return refs[len(refs)-1]
}

// isopBenchFunc returns a 14-variable manager and the OR of 30 random
// cubes over it.
func isopBenchFunc() (*bdd.Manager, bdd.Ref) {
	m := bdd.New(14)
	rng := rand.New(rand.NewSource(19))
	f := bdd.False
	for i := 0; i < 30; i++ {
		cube := bdd.True
		for v := 0; v < 14; v++ {
			switch rng.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v))
			case 1:
				cube = m.And(cube, m.NVar(v))
			}
		}
		f = m.Or(f, cube)
	}
	return m, f
}

func BenchmarkISOP(b *testing.B) {
	m, f := isopBenchFunc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromBDD(m, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// topSharedVar returns the variable with the smallest level among the
// supports of L and U: the oracle topCofactors' choice is checked
// against.
func topSharedVar(m *bdd.Manager, L, U bdd.Ref) int {
	best := -1
	bestLevel := m.NumVars()
	for _, f := range []bdd.Ref{L, U} {
		for _, v := range m.Support(f) {
			if l := m.LevelOf(v); l < bestLevel {
				bestLevel = l
				best = v
			}
		}
	}
	return best
}

// TestTopCofactorsMatchesSupport: over random pairs of non-terminal
// functions under random orders, topCofactors picks the variable
// topSharedVar finds by walking both supports, and its cofactors are the
// ones Restrict computes.
func TestTopCofactorsMatchesSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := 0
	for trial := 0; trial < 200; trial++ {
		vars := 3 + rng.Intn(6)
		m := bdd.NewWithOrder(vars, rng.Perm(vars))
		L, U := randomRef(rng, m), randomRef(rng, m)
		if L <= bdd.True || U <= bdd.True {
			continue
		}
		pairs++
		v, L0, L1, U0, U1 := topCofactors(m, L, U)
		if want := topSharedVar(m, L, U); v != want {
			t.Fatalf("trial %d: top variable %d, supports give %d", trial, v, want)
		}
		for _, c := range []struct {
			f, got bdd.Ref
			val    bool
		}{{L, L0, false}, {L, L1, true}, {U, U0, false}, {U, U1, true}} {
			if want := m.Restrict(c.f, v, c.val); c.got != want {
				t.Fatalf("trial %d: cofactor of %d at x%d=%v is %d, Restrict gives %d", trial, c.f, v, c.val, c.got, want)
			}
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d non-terminal pairs", pairs)
	}
}

// TestFromBDDAllocs bounds FromBDD's allocations on BenchmarkISOP's
// function: the recursion allocates its cubes and cover, not memo
// tables the size of the manager per step.
func TestFromBDDAllocs(t *testing.T) {
	m, f := isopBenchFunc()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FromBDD(m, f, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("FromBDD: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("FromBDD made %.0f allocations, want at most 1000", allocs)
	}
}
