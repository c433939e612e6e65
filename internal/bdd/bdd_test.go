package bdd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// Const returns the terminal for a boolean value.
func Const(v bool) Ref {
	if v {
		return True
	}
	return False
}

// AndN folds And over its arguments (True for none).
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
	}
	return acc
}

// OrN folds Or over its arguments (False for none).
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
	}
	return acc
}

// ITE computes if-then-else(f, g, h) = f·g + f̄·h, memoized per call.
func (m *Manager) ITE(f, g, h Ref) Ref {
	memo := make(map[[3]Ref]Ref)
	var ite func(f, g, h Ref) Ref
	ite = func(f, g, h Ref) Ref {
		switch {
		case f == True:
			return g
		case f == False:
			return h
		case g == h:
			return g
		case g == True && h == False:
			return f
		}
		key := [3]Ref{f, g, h}
		if r, ok := memo[key]; ok {
			return r
		}
		v := m.varAtLevel[min(m.level(f), m.level(g), m.level(h))]
		f0, f1 := m.cofactors(f, v)
		g0, g1 := m.cofactors(g, v)
		h0, h1 := m.cofactors(h, v)
		r := m.mk(v, ite(f0, g0, h0), ite(f1, g1, h1))
		memo[key] = r
		return r
	}
	return ite(f, g, h)
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables.
func (m *Manager) SatCount(f Ref) float64 {
	probs := make([]float64, m.NumVars())
	for i := range probs {
		probs[i] = 0.5
	}
	return m.Probability(f, probs) * math.Pow(2, float64(m.NumVars()))
}

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if m.NumVars() != 3 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
	x := m.Var(0)
	if x == True || x == False {
		t.Fatal("Var returned terminal")
	}
	if m.Var(0) != x {
		t.Error("unique table failed: Var(0) not canonical")
	}
	if m.Not(m.Not(x)) != x {
		t.Error("double negation not canonical")
	}
	if m.NVar(1) != m.Not(m.Var(1)) {
		t.Error("NVar != Not(Var)")
	}
	if Const(true) != True || Const(false) != False {
		t.Error("Const wrong")
	}
}

func TestBasicIdentities(t *testing.T) {
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	cases := []struct {
		name string
		got  Ref
		want Ref
	}{
		{"a∧a", m.And(a, a), a},
		{"a∨a", m.Or(a, a), a},
		{"a⊕a", m.Xor(a, a), False},
		{"a∧¬a", m.And(a, m.Not(a)), False},
		{"a∨¬a", m.Or(a, m.Not(a)), True},
		{"a∧1", m.And(a, True), a},
		{"a∧0", m.And(a, False), False},
		{"a∨0", m.Or(a, False), a},
		{"a∨1", m.Or(a, True), True},
		{"a⊕0", m.Xor(a, False), a},
		{"a⊕1", m.Xor(a, True), m.Not(a)},
		{"commutative and", m.And(a, b), m.And(b, a)},
		{"associative and", m.And(m.And(a, b), c), m.And(a, m.And(b, c))},
		{"demorgan", m.Not(m.And(a, b)), m.Or(m.Not(a), m.Not(b))},
		{"ite as mux", m.ITE(a, b, c), m.Or(m.And(a, b), m.And(m.Not(a), c))},
		{"andn", m.AndN(a, b, c), m.And(a, m.And(b, c))},
		{"orn", m.OrN(a, b, c), m.Or(a, m.Or(b, c))},
		{"andn empty", m.AndN(), True},
		{"orn empty", m.OrN(), False},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// evalTruth compares a BDD against a reference function over all
// assignments.
func evalTruth(t *testing.T, m *Manager, f Ref, ref func([]bool) bool) {
	t.Helper()
	n := m.NumVars()
	assignment := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			assignment[i] = mask&(1<<uint(i)) != 0
		}
		if got, want := m.Eval(f, assignment), ref(assignment); got != want {
			t.Fatalf("Eval(%v) = %v, want %v", assignment, got, want)
		}
	}
}

func TestEvalAgainstTruthTables(t *testing.T) {
	m := New(4)
	a, b, c, d := m.Var(0), m.Var(1), m.Var(2), m.Var(3)
	f := m.Or(m.And(a, b), m.Xor(c, d))
	evalTruth(t, m, f, func(v []bool) bool {
		return (v[0] && v[1]) || (v[2] != v[3])
	})
}

func TestPropertyRandomExpressions(t *testing.T) {
	// Build random expressions simultaneously as BDDs and as closures,
	// then compare over all 2^n assignments.
	rng := rand.New(rand.NewSource(42))
	const vars = 6
	for trial := 0; trial < 200; trial++ {
		m := New(vars)
		type pair struct {
			r  Ref
			fn func([]bool) bool
		}
		pool := make([]pair, 0, 40)
		for v := 0; v < vars; v++ {
			v := v
			pool = append(pool, pair{m.Var(v), func(a []bool) bool { return a[v] }})
		}
		for i := 0; i < 20; i++ {
			x := pool[rng.Intn(len(pool))]
			y := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0:
				pool = append(pool, pair{m.And(x.r, y.r), func(a []bool) bool { return x.fn(a) && y.fn(a) }})
			case 1:
				pool = append(pool, pair{m.Or(x.r, y.r), func(a []bool) bool { return x.fn(a) || y.fn(a) }})
			case 2:
				pool = append(pool, pair{m.Xor(x.r, y.r), func(a []bool) bool { return x.fn(a) != y.fn(a) }})
			case 3:
				pool = append(pool, pair{m.Not(x.r), func(a []bool) bool { return !x.fn(a) }})
			}
		}
		last := pool[len(pool)-1]
		assignment := make([]bool, vars)
		for mask := 0; mask < 1<<vars; mask++ {
			for i := 0; i < vars; i++ {
				assignment[i] = mask&(1<<uint(i)) != 0
			}
			if m.Eval(last.r, assignment) != last.fn(assignment) {
				t.Fatalf("trial %d: mismatch at %v", trial, assignment)
			}
		}
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c)
	if got := m.Restrict(f, 0, true); got != m.Or(b, c) {
		t.Errorf("Restrict(f, a=1) wrong: %s", m.String(got))
	}
	if got := m.Restrict(f, 0, false); got != c {
		t.Errorf("Restrict(f, a=0) wrong: %s", m.String(got))
	}
	if got := m.Restrict(f, 2, false); got != m.And(a, b) {
		t.Errorf("Restrict(f, c=0) wrong: %s", m.String(got))
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.Var(4))
	got := m.Support(f)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if s := m.Support(True); len(s) != 0 {
		t.Errorf("Support(True) = %v", s)
	}
}

func TestSatCount(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	if got := m.SatCount(m.And(a, b)); got != 2 { // a∧b free c: 2 of 8
		t.Errorf("SatCount(a∧b) = %v, want 2", got)
	}
	if got := m.SatCount(True); got != 8 {
		t.Errorf("SatCount(1) = %v, want 8", got)
	}
	if got := m.SatCount(False); got != 0 {
		t.Errorf("SatCount(0) = %v, want 0", got)
	}
}

func TestProbability(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	probs := []float64{0.9, 0.9}
	cases := []struct {
		name string
		f    Ref
		want float64
	}{
		{"a", a, 0.9},
		{"¬a", m.Not(a), 0.1},
		{"a∧b", m.And(a, b), 0.81},
		{"a∨b", m.Or(a, b), 0.99},
		{"a⊕b", m.Xor(a, b), 0.18},
	}
	for _, c := range cases {
		if got := m.Probability(c.f, probs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P[%s] = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestProbabilityComplementInvariant(t *testing.T) {
	// Property 4.1 foundation: P[¬f] = 1 − P[f] for random functions and
	// probabilities.
	rng := rand.New(rand.NewSource(7))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(5)
		f := randomRef(r, m)
		probs := make([]float64, 5)
		for i := range probs {
			probs[i] = r.Float64()
		}
		return math.Abs(m.Probability(m.Not(f), probs)-(1-m.Probability(f, probs))) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func randomRef(r *rand.Rand, m *Manager) Ref {
	refs := []Ref{}
	for v := 0; v < m.NumVars(); v++ {
		refs = append(refs, m.Var(v))
	}
	for i := 0; i < 15; i++ {
		x := refs[r.Intn(len(refs))]
		y := refs[r.Intn(len(refs))]
		switch r.Intn(4) {
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

func TestProbabilityManyMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(6)
	var roots []Ref
	for i := 0; i < 10; i++ {
		roots = append(roots, randomRef(rng, m))
	}
	probs := make([]float64, 6)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	many := m.ProbabilityMany(roots, probs)
	for i, r := range roots {
		if single := m.Probability(r, probs); math.Abs(single-many[i]) > 1e-12 {
			t.Errorf("root %d: many=%v single=%v", i, many[i], single)
		}
	}
}

func TestNodeCountSharing(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	// f alone: two decision nodes.
	if got := m.NodeCount(f); got != 2 {
		t.Errorf("NodeCount(a∧b) = %d, want 2", got)
	}
	// Shared counting: {a, a∧b} shares the a-node? The AND's top node
	// decides a with hi pointing at the b-node, so counting both roots
	// gives 3 distinct nodes (var-a node, and-top, b-node)... verify via
	// distinctness rather than hard-coding intuition:
	count := m.NodeCount(f, a, b)
	if count != 3 {
		t.Errorf("NodeCount(f,a,b) = %d, want 3", count)
	}
}

func TestBuildNetwork(t *testing.T) {
	n := logic.New("net")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	and := n.AddAnd(a, b)
	or := n.AddOr(and, c)
	inv := n.AddNot(or)
	n.MarkOutput("f", inv)
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		t.Fatalf("BuildNetwork: %v", err)
	}
	m := nb.Manager
	want := m.Not(m.Or(m.And(m.Var(0), m.Var(1)), m.Var(2)))
	if got := nb.NodeRefs[inv]; got != want {
		t.Errorf("network BDD mismatch: %s vs %s", m.String(got), m.String(want))
	}
	outs := nb.OutputRefs(n)
	if len(outs) != 1 || outs[0] != want {
		t.Errorf("OutputRefs wrong")
	}
}

func TestBuildNetworkMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := randomNetwork(rng, 5, 20)
		nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
		if err != nil {
			t.Fatalf("BuildNetwork: %v", err)
		}
		assignment := make([]bool, 5)
		for mask := 0; mask < 32; mask++ {
			for i := range assignment {
				assignment[i] = mask&(1<<uint(i)) != 0
			}
			values := n.Eval(assignment, nil)
			for _, o := range n.Outputs() {
				if got := nb.Manager.Eval(nb.NodeRefs[o.Driver], assignment); got != values[o.Driver] {
					t.Fatalf("trial %d output %s: BDD %v, eval %v at %v", trial, o.Name, got, values[o.Driver], assignment)
				}
			}
		}
	}
}

func randomNetwork(rng *rand.Rand, numInputs, numGates int) *logic.Network {
	n := logic.New("rand")
	ids := make([]logic.NodeID, 0, numInputs+numGates)
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(string(rune('a'+i))))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		var id logic.NodeID
		switch rng.Intn(4) {
		case 0:
			id = n.AddNot(pick())
		case 1:
			id = n.AddAnd(pick(), pick())
		case 2:
			id = n.AddOr(pick(), pick())
		default:
			id = n.AddXor(pick(), pick())
		}
		ids = append(ids, id)
	}
	n.MarkOutput("f", ids[len(ids)-1])
	n.MarkOutput("g", ids[len(ids)-2])
	return n
}

func TestTransferPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		src := New(5)
		f := randomRef(rng, src)
		order := rng.Perm(5)
		dst := NewWithOrder(5, order)
		g := Transfer(src, f, dst, nil)
		assignment := make([]bool, 5)
		for mask := 0; mask < 32; mask++ {
			for i := range assignment {
				assignment[i] = mask&(1<<uint(i)) != 0
			}
			if src.Eval(f, assignment) != dst.Eval(g, assignment) {
				t.Fatalf("trial %d: transfer changed function at %v", trial, assignment)
			}
		}
	}
}

func TestCountUnderOrderKnownCase(t *testing.T) {
	// The textbook order-sensitivity example: f = x1·x2 + x3·x4 + x5·x6.
	// Under (x1,x2,x3,x4,x5,x6) the BDD has 6 decision nodes; under the
	// interleaved order (x1,x3,x5,x2,x4,x6) it has 14.
	m := New(6)
	f := m.OrN(
		m.And(m.Var(0), m.Var(1)),
		m.And(m.Var(2), m.Var(3)),
		m.And(m.Var(4), m.Var(5)),
	)
	good := CountUnderOrder(m, []Ref{f}, []int{0, 1, 2, 3, 4, 5})
	bad := CountUnderOrder(m, []Ref{f}, []int{0, 2, 4, 1, 3, 5})
	if good != 6 {
		t.Errorf("good order node count = %d, want 6", good)
	}
	if bad != 14 {
		t.Errorf("bad order node count = %d, want 14", bad)
	}
}

func TestSiftImprovesBadOrder(t *testing.T) {
	// Start from the interleaved order; sifting must find something no
	// worse than the good order's 6 nodes.
	m := NewWithOrder(6, []int{0, 2, 4, 1, 3, 5})
	f := m.OrN(
		m.And(m.Var(0), m.Var(1)),
		m.And(m.Var(2), m.Var(3)),
		m.And(m.Var(4), m.Var(5)),
	)
	if before := m.NodeCount(f); before != 14 {
		t.Fatalf("precondition: bad order count = %d, want 14", before)
	}
	order, count := Sift(m, []Ref{f})
	if count > 6 {
		t.Errorf("Sift result = %d nodes under %v, want <= 6", count, order)
	}
	if got := CountUnderOrder(m, []Ref{f}, order); got != count {
		t.Errorf("Sift count %d inconsistent with rebuild %d", count, got)
	}
}

func BenchmarkBuildNetwork(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := randomNetwork(rng, 16, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(New(n.NumInputs()), n, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbability(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	n := randomNetwork(rng, 16, 500)
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]float64, 16)
	for i := range probs {
		probs[i] = 0.5
	}
	roots := nb.NodeRefs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Manager.ProbabilityMany(roots, probs)
	}
}
