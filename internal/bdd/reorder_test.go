package bdd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/logic"
)

// andOrPairs builds f = (a0·b0) + (a1·b1) + ... + (a_{k-1}·b_{k-1}),
// the textbook order-sensitive function: ~3k nodes when the pairs are
// adjacent in the order, ~2^k when the a's all precede the b's.
func andOrPairs(k int) *logic.Network {
	n := logic.New("andorpairs")
	as := make([]logic.NodeID, k)
	bs := make([]logic.NodeID, k)
	for i := 0; i < k; i++ {
		as[i] = n.AddInput("a" + string(rune('0'+i%10)) + string(rune('0'+i/10)))
	}
	for i := 0; i < k; i++ {
		bs[i] = n.AddInput("b" + string(rune('0'+i%10)) + string(rune('0'+i/10)))
	}
	acc := n.AddAnd(as[0], bs[0])
	for i := 1; i < k; i++ {
		acc = n.AddOr(acc, n.AddAnd(as[i], bs[i]))
	}
	n.MarkOutput("f", acc)
	return n
}

// SwapLevels exchanges adjacent levels l and l+1 in place, rewriting
// only the nodes at those two levels: the primitive Reorder is built
// from, under the same protected-root contract. Each call is a reorder
// of one swap: it builds the reorder state, swaps, and re-attaches the
// unique table's chains, so checkUniqueTable and mk may follow it.
func (m *Manager) SwapLevels(l int) error {
	if l < 0 || l+1 >= m.NumVars() {
		return fmt.Errorf("bdd: swap level %d out of range [0,%d)", l, m.NumVars()-1)
	}
	return CatchInterrupt(func() {
		m.buildReorderState()
		m.swapLevels(l)
		m.endReorder()
	})
}

// nodeTriple is a node's (variable, lo, hi) key, without its chain link.
type nodeTriple struct {
	v      int32
	lo, hi Ref
}

// checkUniqueTable verifies the unique table against the nodes it
// interns: every chained node hashes to its own bucket and appears in
// the table once (which also rules out a cycle); uniqueCount is the
// chained total; no (variable, lo, hi) triple is interned twice; every
// interned node is reduced and ordered, its levels read through
// levelOfVar; no free slot is interned, nor listed twice; and every node
// reachable from a protected root is interned.
func checkUniqueTable(t *testing.T, m *Manager) {
	t.Helper()
	interned := make(map[Ref]bool, m.uniqueCount)
	triples := make(map[nodeTriple]Ref, m.uniqueCount)
	for b, head := range m.unique {
		for r := head; r != False; r = m.nodes[r].next {
			if r == True || int(r) >= len(m.nodes) {
				t.Fatalf("bucket %d chains Ref %d (%d node slots)", b, r, len(m.nodes))
			}
			if interned[r] {
				t.Fatalf("node %d is chained twice", r)
			}
			interned[r] = true
			n := m.nodes[r]
			if home := m.home(n.v, n.lo, n.hi); home != uint64(b) {
				t.Fatalf("node %d = %+v is chained in bucket %d, hashes to %d", r, n, b, home)
			}
			if n.lo == n.hi || n.v < 0 || int(n.v) >= m.NumVars() ||
				m.level(n.lo) <= m.level(r) || m.level(n.hi) <= m.level(r) {
				t.Fatalf("node %d = %+v is not reduced and ordered", r, n)
			}
			key := nodeTriple{n.v, n.lo, n.hi}
			if other, dup := triples[key]; dup {
				t.Fatalf("nodes %d and %d share the triple %+v", other, r, key)
			}
			triples[key] = r
		}
	}
	if len(interned) != m.uniqueCount {
		t.Fatalf("uniqueCount = %d, chained nodes = %d", m.uniqueCount, len(interned))
	}
	freed := make(map[Ref]bool, len(m.free))
	for _, r := range m.free {
		if interned[r] || freed[r] || r <= True {
			t.Fatalf("free slot %d is interned, listed twice or a terminal", r)
		}
		freed[r] = true
	}
	visited := make([]bool, len(m.nodes))
	var reach func(Ref)
	reach = func(r Ref) {
		if r <= True || visited[r] {
			return
		}
		visited[r] = true
		if !interned[r] {
			t.Fatalf("node %d is reachable from a protected root but not interned", r)
		}
		reach(m.nodes[r].lo)
		reach(m.nodes[r].hi)
	}
	for _, roots := range m.protected {
		for _, r := range roots {
			reach(r)
		}
	}
}

// checkAgainstNetwork verifies every protected network-node BDD still
// computes its gate function under random assignments.
func checkAgainstNetwork(t *testing.T, n *logic.Network, nb *NetworkBDDs, rng *rand.Rand, trials int) {
	t.Helper()
	numVars := nb.Manager.NumVars()
	assignment := make([]bool, numVars)
	for trial := 0; trial < trials; trial++ {
		for i := range assignment {
			assignment[i] = rng.Intn(2) == 0
		}
		values := n.Eval(assignment, nil)
		for i, ref := range nb.NodeRefs {
			if got := nb.Manager.Eval(ref, assignment); got != values[i] {
				t.Fatalf("node %d: BDD %v, network %v under %v", i, got, values[i], assignment)
			}
		}
	}
}

// TestSwapLevelsPropertyRandom: arbitrary SwapLevels sequences preserve
// protected-root semantics — every network-node BDD still evaluates
// correctly, the live-node count equals a fresh reachability count, and
// a canonical rebuild under the final order yields an identical shared
// node count (the table stayed reduced and canonical). The unique table
// passes checkUniqueTable after every swap.
func TestSwapLevelsPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := randomNetwork(rng, 7, 30)
		nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := nb.Manager
		for s := 0; s < 40; s++ {
			if err := m.SwapLevels(rng.Intn(m.NumVars() - 1)); err != nil {
				t.Fatalf("trial %d swap %d: %v", trial, s, err)
			}
			checkUniqueTable(t, m)
		}
		checkAgainstNetwork(t, n, nb, rng, 32)
		if got, want := m.LiveNodes(), m.NodeCount(nb.NodeRefs...); got != want {
			t.Fatalf("trial %d: LiveNodes = %d, reachable = %d", trial, got, want)
		}
		if got, want := m.NodeCount(nb.NodeRefs...), CountUnderOrder(m, nb.NodeRefs, m.Order()); got != want {
			t.Fatalf("trial %d: in-place count %d != canonical rebuild %d under same order", trial, got, want)
		}
	}
}

// TestSwapLevelsOutOfRange: the primitive rejects bad levels.
func TestSwapLevelsOutOfRange(t *testing.T) {
	m := New(4)
	for _, l := range []int{-1, 3, 7} {
		if err := m.SwapLevels(l); err == nil {
			t.Errorf("SwapLevels(%d) accepted on 4 variables", l)
		}
	}
}

// TestReorderAgainstSiftOracle: the in-place reorderer must preserve
// semantics, never end larger than it started, and agree exactly with
// the rebuild-based oracle's count for the order it picked. The oracle
// (Sift) itself bounds how good a single sifting pass can be; the
// in-place pass must land within it and the start size.
func TestReorderAgainstSiftOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		n := randomNetwork(rng, 8, 40)
		nb, err := BuildNetwork(NewWithOrder(8, rng.Perm(8)), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := nb.Manager
		before := m.NodeCount(nb.NodeRefs...)
		if err := m.Reorder(); err != nil {
			t.Fatalf("trial %d: Reorder: %v", trial, err)
		}
		after := m.NodeCount(nb.NodeRefs...)
		if after > before {
			t.Fatalf("trial %d: reorder grew the forest %d -> %d", trial, before, after)
		}
		if got := CountUnderOrder(m, nb.NodeRefs, m.Order()); got != after {
			t.Fatalf("trial %d: oracle rebuild under sifted order = %d, in-place = %d", trial, got, after)
		}
		checkUniqueTable(t, m)
		checkAgainstNetwork(t, n, nb, rng, 32)
		if m.Reorders() != 1 {
			t.Fatalf("trial %d: Reorders = %d, want 1", trial, m.Reorders())
		}
	}
}

// TestReorderShrinksPathologicalOrder: under the a's-then-b's order the
// pairs function needs ~2^k nodes; one in-place sifting pass must
// recover an order within 2× of the known-good interleaved size.
func TestReorderShrinksPathologicalOrder(t *testing.T) {
	const k = 8
	n := andOrPairs(k)
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil) // natural order: a0..a7 b0..b7 — pathological
	if err != nil {
		t.Fatal(err)
	}
	m := nb.Manager
	before := m.NodeCount(nb.OutputRefs(n)...)
	if before < 1<<k {
		t.Fatalf("setup: pathological order built only %d nodes, want >= %d", before, 1<<k)
	}
	if err := m.Reorder(); err != nil {
		t.Fatal(err)
	}
	after := m.NodeCount(nb.OutputRefs(n)...)
	if after > 6*k {
		t.Fatalf("reorder left %d output nodes, want <= %d (pairs order ~3k)", after, 6*k)
	}
	rng := rand.New(rand.NewSource(7))
	checkAgainstNetwork(t, n, nb, rng, 64)
}

// TestReorderDeterministic: two identical build+reorder runs agree on
// the final order, node count, and slot-level state (orders and counts
// are pure functions of table state).
func TestReorderDeterministic(t *testing.T) {
	run := func() ([]int, int) {
		n := andOrPairs(6)
		nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.Manager.Reorder(); err != nil {
			t.Fatal(err)
		}
		return nb.Manager.Order(), nb.Manager.LiveNodes()
	}
	o1, c1 := run()
	o2, c2 := run()
	if c1 != c2 {
		t.Fatalf("node counts differ across identical runs: %d vs %d", c1, c2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders differ at level %d: %v vs %v", i, o1, o2)
		}
	}
}

// TestReorderBudgetTripMidReorder: a node-cap trip inside a reorder is
// the usual CUDD-style interrupt — Reorder returns ErrBDDNodes, and the
// tripped manager is dropped: a retry on a fresh manager under a looser
// budget builds the same forest as an unbudgeted build.
func TestReorderBudgetTripMidReorder(t *testing.T) {
	n := andOrPairs(6)
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.Manager
	live := m.LiveNodes()
	// Cap below the current live count: the first swap-created node
	// trips mid-reorder.
	m.SetBudget(budget.New(live/2, 0))
	if err := m.Reorder(); !errors.Is(err, budget.ErrBDDNodes) {
		t.Fatalf("Reorder under tiny cap: err = %v, want ErrBDDNodes", err)
	}
	// The standard retry path: a fresh manager under a looser budget.
	retry := New(n.NumInputs())
	retry.SetBudget(budget.New(0, 0))
	nb2, err := BuildNetwork(retry, n, nil)
	if err != nil {
		t.Fatalf("rebuild after tripped reorder: %v", err)
	}
	fresh, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nb2.Manager.NodeCount(nb2.NodeRefs...), fresh.Manager.NodeCount(fresh.NodeRefs...); got != want {
		t.Fatalf("post-trip rebuild count %d != fresh build %d", got, want)
	}
}

// TestReorderCancellationLandsInside: a cancelled token is observed by
// the per-swap poll, so cancellation lands inside a reorder promptly.
func TestReorderCancellationLandsInside(t *testing.T) {
	n := andOrPairs(6)
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	tok := budget.New(0, 0)
	nb.Manager.SetBudget(tok)
	tok.Cancel(nil)
	if err := nb.Manager.Reorder(); !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("Reorder on cancelled token: err = %v, want ErrCancelled", err)
	}
}

// TestAutoReorderDuringBuild: with auto-reorder enabled and a budget
// fraction point below the pathological peak, the build reorders itself
// mid-flight and completes under a node cap the plain build blows —
// deterministically, with exact probabilities intact.
func TestAutoReorderDuringBuild(t *testing.T) {
	const k = 8
	n := andOrPairs(k)
	// Plain build under the cap must trip...
	capped := New(2 * k)
	capped.SetBudget(budget.New(150, 0))
	if _, err := BuildNetwork(capped, n, nil); !errors.Is(err, budget.ErrBDDNodes) {
		t.Fatalf("plain build under cap: err = %v, want ErrBDDNodes", err)
	}
	// ...while the auto-reordering build completes.
	build := func() *NetworkBDDs {
		m := New(2 * k)
		m.SetBudget(budget.New(150, 0))
		m.SetAutoReorder(true)
		nb, err := BuildNetwork(m, n, nil)
		if err != nil {
			t.Fatalf("auto-reorder build: %v", err)
		}
		if m.Reorders() == 0 {
			t.Fatal("auto-reorder build finished without reordering")
		}
		return nb
	}
	nb1 := build()
	nb2 := build()
	// Deterministic: identical orders and node counts across runs.
	o1, o2 := nb1.Manager.Order(), nb2.Manager.Order()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("auto-reorder orders differ at level %d: %v vs %v", i, o1, o2)
		}
	}
	if nb1.Manager.LiveNodes() != nb2.Manager.LiveNodes() {
		t.Fatalf("auto-reorder live counts differ: %d vs %d", nb1.Manager.LiveNodes(), nb2.Manager.LiveNodes())
	}
	// Exactness: probabilities match an unbudgeted, unreordered build.
	probs := make([]float64, 2*k)
	for i := range probs {
		probs[i] = 0.5
	}
	ref, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := nb1.Manager.ProbabilityMany(nb1.OutputRefs(n), probs)
	want := ref.Manager.ProbabilityMany(ref.OutputRefs(n), probs)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output %d probability: sifted %v, reference %v", i, got[i], want[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	checkAgainstNetwork(t, n, nb1, rng, 64)
}

// rebuildNode recomputes node i of a randomNetwork (two-fanin gates)
// from its fanins' Refs.
func rebuildNode(m *Manager, n *logic.Network, refs []Ref, i int) Ref {
	nd := n.Node(logic.NodeID(i))
	switch nd.Kind {
	case logic.KindNot:
		return m.Not(refs[nd.Fanins[0]])
	case logic.KindAnd:
		return m.And(refs[nd.Fanins[0]], refs[nd.Fanins[1]])
	case logic.KindOr:
		return m.Or(refs[nd.Fanins[0]], refs[nd.Fanins[1]])
	case logic.KindXor:
		return m.Xor(refs[nd.Fanins[0]], refs[nd.Fanins[1]])
	}
	return refs[i]
}

// TestBuildsAfterReorder: builds that continue after a reorder intern
// into the slots it collected before growing node storage, and the
// table stays canonical — rebuilding any live function from its fanins
// returns its Ref, fresh functions keep the table's invariants, and
// every protected root keeps its function.
func TestBuildsAfterReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	refilled := 0
	for trial := 0; trial < 15; trial++ {
		n := randomNetwork(rng, 8, 40)
		nb, err := BuildNetwork(NewWithOrder(8, rng.Perm(8)), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := nb.Manager
		if err := m.Reorder(); err != nil {
			t.Fatalf("trial %d: Reorder: %v", trial, err)
		}
		if len(m.free) > 0 {
			refilled++
		}
		for i := range nb.NodeRefs {
			size := m.Size()
			if got := rebuildNode(m, n, nb.NodeRefs, i); got != nb.NodeRefs[i] {
				t.Fatalf("trial %d: rebuilt node %d is Ref %d, the live function is Ref %d", trial, i, got, nb.NodeRefs[i])
			}
			if len(m.free) > 0 && m.Size() != size {
				t.Fatalf("trial %d: node storage grew %d -> %d with %d collected slots free", trial, size, m.Size(), len(m.free))
			}
		}
		for k := 0; k < 40; k++ {
			size := m.Size()
			f := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
			g := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
			h := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
			m.ITE(f, m.Xor(g, h), m.Not(g))
			if len(m.free) > 0 && m.Size() != size {
				t.Fatalf("trial %d: node storage grew %d -> %d with %d collected slots free", trial, size, m.Size(), len(m.free))
			}
		}
		checkUniqueTable(t, m)
		checkAgainstNetwork(t, n, nb, rng, 32)
	}
	if refilled == 0 {
		t.Fatal("no reorder left collected slots to refill")
	}
}

// TestAutoReorderPinned pins a budgeted build that reorders itself
// more than once: the sifted order, the live-node count, the reorder
// count, the output probabilities' bits and the bits of the sum of every
// node's probability. Sift decisions read only live-node counts, which
// are canonical for an order, so none of these may move with the unique
// table's layout or the numbering of Refs.
func TestAutoReorderPinned(t *testing.T) {
	checkAutoReorderPinned(t, defaultSizeHint)
}

// TestReorderIndependentOfTableSize runs TestAutoReorderPinned's build
// under size hints that give different bucket counts, and so different
// chain orders and table growth points: every run must end with the
// pinned order, live nodes, reorder count and probability bits.
func TestReorderIndependentOfTableSize(t *testing.T) {
	for _, hint := range []int{2, 1536, 65536} {
		t.Run(fmt.Sprint(hint), func(t *testing.T) { checkAutoReorderPinned(t, hint) })
	}
}

// checkAutoReorderPinned builds randomNetwork seed 2 (20 inputs, 300
// gates) into a manager sized for sizeHint nodes under a 2,000-node
// budget with auto-reorder on, and checks the pinned outcome.
func checkAutoReorderPinned(t *testing.T, sizeHint int) {
	t.Helper()
	n := randomNetwork(rand.New(rand.NewSource(2)), 20, 300)
	m := NewSized(n.NumInputs(), sizeHint)
	m.SetBudget(budget.New(2000, 0))
	m.SetAutoReorder(true)
	nb, err := BuildNetwork(m, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{5, 8, 1, 11, 14, 0, 2, 10, 13, 12, 6, 7, 15, 3, 4, 16, 19, 17, 9, 18}
	if got := m.Order(); !slices.Equal(got, wantOrder) {
		t.Errorf("order = %v, want %v", got, wantOrder)
	}
	if got := m.LiveNodes(); got != 1415 {
		t.Errorf("LiveNodes = %d, want 1415", got)
	}
	if got := m.Reorders(); got != 2 {
		t.Errorf("Reorders = %d, want 2", got)
	}
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = 0.2 + 0.6*float64(i)/float64(len(probs))
	}
	for i, want := range []uint64{0x3fb15d1155b53b4b, 0x3fd851eb851eb850} {
		if p := m.Probability(nb.OutputRefs(n)[i], probs); math.Float64bits(p) != want {
			t.Errorf("output %d: P = %v (bits %#x), want bits %#x", i, p, math.Float64bits(p), want)
		}
	}
	sum := 0.0
	for _, p := range m.ProbabilityMany(nb.NodeRefs, probs) {
		sum += p
	}
	if bits := math.Float64bits(sum); bits != 0x406344c531b83944 {
		t.Errorf("sum of node probabilities = %v (bits %#x), want bits 0x406344c531b83944", sum, bits)
	}
	checkUniqueTable(t, m)
	checkAgainstNetwork(t, n, nb, rand.New(rand.NewSource(4)), 32)
}

// TestAutoReorderSchedule pins the automatic-reorder trigger for a
// given live count, reorder count and node budget B. Unbudgeted
// managers and the first trigger follow the doubling rule (floor 4096)
// pulled down to B/2; once a budgeted manager has reordered, the next
// trigger lies at least B/4 above the live count, so a sift that lands
// just under B/2 does not re-arm it a few nodes later.
func TestAutoReorderSchedule(t *testing.T) {
	for _, tc := range []struct {
		budget, live, reorders, want int
	}{
		{0, 0, 0, 4096},
		{0, 1000, 3, 4096},
		{0, 3000, 3, 6000},
		{20000, 0, 0, 4096},
		{2000, 0, 0, 1000},
		{2000, 990, 0, 1000},
		{2000, 990, 1, 1490},
		{20000, 9990, 1, 14990},
		{20000, 3000, 2, 8000},
		{20000, 12000, 1, 24000},
		{200, 150, 1, 4096},
		{200, 90, 1, 140},
	} {
		m := New(4)
		if tc.budget > 0 {
			m.SetBudget(budget.New(tc.budget, 0))
		}
		m.uniqueCount, m.reorders = tc.live, tc.reorders
		m.scheduleNextReorder()
		if m.nextReorderAt != tc.want {
			t.Errorf("budget %d, %d live, %d reorders: next trigger at %d, want %d",
				tc.budget, tc.live, tc.reorders, m.nextReorderAt, tc.want)
		}
		if tc.budget > 0 && tc.reorders > 0 && m.nextReorderAt < tc.live+tc.budget/4 {
			t.Errorf("budget %d, %d live after a reorder: next trigger at %d, less than B/4 above the live count",
				tc.budget, tc.live, m.nextReorderAt)
		}
	}
}

// secondReorder builds randomNetwork(seed 0, 18 inputs, 250 gates),
// sifts it once, interns and protects 40 further functions of its nodes
// (refilling slots the first reorder collected), then sifts again under
// a node cap. A non-nil shuffle permutes every variable's node list
// before the second reorder, and with it the order of each swap's
// dependents.
func secondReorder(limit int, shuffle *rand.Rand) (*Manager, error) {
	n := randomNetwork(rand.New(rand.NewSource(0)), 18, 250)
	m := New(n.NumInputs())
	nb, err := BuildNetwork(m, n, nil)
	if err != nil {
		return m, err
	}
	if err := m.Reorder(); err != nil {
		return m, err
	}
	rng := rand.New(rand.NewSource(1000))
	extra := make([]Ref, 40)
	m.Protect(extra)
	for k := range extra {
		f := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
		g := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
		h := nb.NodeRefs[rng.Intn(len(nb.NodeRefs))]
		extra[k] = m.ITE(f, m.Xor(g, h), m.Not(g))
	}
	m.SetBudget(budget.New(limit, 0))
	if shuffle != nil {
		m.buildReorderState()
		for _, list := range m.rs.vars {
			shuffle.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			for i, r := range list {
				m.nodes[r].next = Ref(i) // a listed node's position
			}
		}
	}
	return m, m.Reorder()
}

// TestSecondReorderTrip pins the smallest node cap a manager's second
// reorder completes under, and shows that it depends only on the forest
// and the order: a swap's dependents stay counted until their own
// rewrite, so inside a swap the cap sees the live nodes at its start
// plus the nodes it has created, and shuffling the variables' node
// lists moves no trip. It also pins the completed reorder's order and
// live count.
func TestSecondReorderTrip(t *testing.T) {
	const threshold = 3091
	wantOrder := []int{7, 1, 4, 9, 3, 15, 5, 10, 14, 0, 11, 2, 6, 8, 12, 16, 13, 17}
	for i, seed := range []int64{0, 8, 11} {
		var shuffle *rand.Rand
		if seed != 0 {
			shuffle = rand.New(rand.NewSource(seed))
		}
		m, err := secondReorder(threshold-1, shuffle)
		if !errors.Is(err, budget.ErrBDDNodes) || m.Reorders() != 1 {
			t.Errorf("shuffle %d, cap %d: err = %v after %d reorders, want ErrBDDNodes in the second", i, threshold-1, err, m.Reorders())
		}
		if seed != 0 {
			shuffle = rand.New(rand.NewSource(seed))
		}
		m, err = secondReorder(threshold, shuffle)
		if err != nil || m.Reorders() != 2 {
			t.Fatalf("shuffle %d, cap %d: err = %v after %d reorders, want two", i, threshold, err, m.Reorders())
		}
		if got := m.Order(); !slices.Equal(got, wantOrder) {
			t.Errorf("shuffle %d: order = %v, want %v", i, got, wantOrder)
		}
		if got := m.LiveNodes(); got != 1869 {
			t.Errorf("shuffle %d: LiveNodes = %d, want 1869", i, got)
		}
		checkUniqueTable(t, m)
	}
}

// TestReorderAllocs: a reorder allocates its bookkeeping once — its level
// lists grow by appends, O(log population) allocations each — and its
// swaps reuse scratch space, so the count does not scale with the
// hundreds of swaps a sifting pass makes. Each run builds into a fresh
// manager, whose allocations are measured alone and subtracted.
func TestReorderAllocs(t *testing.T) {
	n := bddBenchNet()
	var m *Manager
	build := func() {
		m = New(n.NumInputs())
		if _, err := BuildNetwork(m, n, nil); err != nil {
			t.Fatal(err)
		}
	}
	buildAllocs := testing.AllocsPerRun(3, build)
	allocs := testing.AllocsPerRun(3, func() {
		build()
		if err := m.Reorder(); err != nil {
			t.Fatal(err)
		}
	}) - buildAllocs
	t.Logf("one Reorder over %d levels: %.0f allocations", n.NumInputs(), allocs)
	if levels := n.NumInputs(); allocs > float64(12*levels) {
		t.Errorf("one Reorder over %d levels made %.0f allocations, want at most %d", levels, allocs, 12*levels)
	}
}

// TestSiftOracleUnchangedByIndexFix: the position-indexed Sift must
// behave exactly as the original rescanning implementation — improving
// the known pathological case to the interleaved-order count.
func TestSiftOracleUnchangedByIndexFix(t *testing.T) {
	m := New(6)
	f := m.OrN(
		m.And(m.Var(0), m.Var(1)),
		m.And(m.Var(2), m.Var(3)),
		m.And(m.Var(4), m.Var(5)),
	)
	// Interleave badly first.
	bad := NewWithOrder(6, []int{0, 2, 4, 1, 3, 5})
	g := Transfer(m, f, bad, nil)
	order, count := Sift(bad, []Ref{g})
	if count != 6 {
		t.Fatalf("Sift count = %d, want 6", count)
	}
	if got := CountUnderOrder(bad, []Ref{g}, order); got != count {
		t.Fatalf("Sift order recount = %d, want %d", got, count)
	}
}

// addBlocks adds blocks independent blocks to n: each has width inputs
// of its own, gates random two-input gates over its inputs and earlier
// gates, and one output, its last gate. No gate reads another block, so
// variables of different blocks never share a root's support.
func addBlocks(n *logic.Network, rng *rand.Rand, blocks, width, gates int) {
	for b := 0; b < blocks; b++ {
		ids := make([]logic.NodeID, 0, width+gates)
		for i := 0; i < width; i++ {
			ids = append(ids, n.AddInput(fmt.Sprintf("blk%d_%d", b, i)))
		}
		for g := 0; g < gates; g++ {
			x, y := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			switch rng.Intn(3) {
			case 0:
				ids = append(ids, n.AddAnd(x, y))
			case 1:
				ids = append(ids, n.AddOr(x, y))
			default:
				ids = append(ids, n.AddXor(x, y))
			}
		}
		n.MarkOutput(fmt.Sprintf("blk%d", b), ids[len(ids)-1])
	}
}

// TestNonInteractingSwapIsFree: on a network of six disjoint 3-input
// blocks, adjacent variables from different blocks do not interact, and
// their swap only exchanges their levels — LiveNodes, Size and every
// protected node's (variable, lo, hi) stay as they were — while a swap
// inside a block
// still rewrites to the canonical count of the new order. A full
// Reorder then keeps the table's invariants and agrees with the
// rebuild oracle's count for the order it picked.
func TestNonInteractingSwapIsFree(t *testing.T) {
	const blocks, width = 6, 3
	rng := rand.New(rand.NewSource(23))
	n := logic.New("blocks")
	addBlocks(n, rng, blocks, width, 5)
	nb, err := BuildNetwork(NewWithOrder(n.NumInputs(), rng.Perm(n.NumInputs())), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.Manager
	// Swaps change no function, so one interaction matrix serves the walk.
	m.buildReorderState()
	inter := m.rs
	m.endReorder()
	triples := func() []nodeTriple {
		out := make([]nodeTriple, len(nb.NodeRefs))
		for i, r := range nb.NodeRefs {
			nd := m.nodes[r]
			out[i] = nodeTriple{nd.v, nd.lo, nd.hi}
		}
		return out
	}
	free, rewriting := 0, 0
	for s := 0; s < 200; s++ {
		l := rng.Intn(m.NumVars() - 1)
		x, y := m.Order()[l], m.Order()[l+1]
		live, size, before := m.LiveNodes(), m.Size(), triples()
		if err := m.SwapLevels(l); err != nil {
			t.Fatalf("swap %d: %v", s, err)
		}
		if x/width != y/width {
			free++
			if inter.interacts(int32(x), int32(y)) {
				t.Fatalf("swap %d: x%d and x%d of blocks %d and %d marked interacting", s, x, y, x/width, y/width)
			}
			if m.LiveNodes() != live || m.Size() != size || !slices.Equal(triples(), before) {
				t.Fatalf("swap %d of x%d and x%d (blocks %d, %d): live %d -> %d, size %d -> %d, protected triples changed: %v",
					s, x, y, x/width, y/width, live, m.LiveNodes(), size, m.Size(), !slices.Equal(triples(), before))
			}
			continue
		}
		rewriting++
		if got, want := m.LiveNodes(), CountUnderOrder(m, nb.NodeRefs, m.Order()); got != want {
			t.Fatalf("swap %d inside block %d: LiveNodes = %d, canonical rebuild = %d", s, x/width, got, want)
		}
	}
	if free == 0 || rewriting == 0 {
		t.Fatalf("%d free and %d in-block swaps: the walk must make both", free, rewriting)
	}
	checkUniqueTable(t, m)
	checkAgainstNetwork(t, n, nb, rng, 32)
	before := m.LiveNodes()
	if err := m.Reorder(); err != nil {
		t.Fatal(err)
	}
	after := m.LiveNodes()
	if after > before {
		t.Fatalf("reorder grew the forest %d -> %d", before, after)
	}
	if got := CountUnderOrder(m, nb.NodeRefs, m.Order()); got != after {
		t.Fatalf("oracle rebuild under sifted order = %d, in-place = %d", got, after)
	}
	checkUniqueTable(t, m)
	checkAgainstNetwork(t, n, nb, rng, 32)
}
