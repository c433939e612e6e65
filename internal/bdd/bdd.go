// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs, Bryant [1]) sized for the signal-probability computations the
// paper's power estimator performs (Section 4.2.2).
//
// The manager uses index-based nodes (no complement edges) with a unique
// table for canonicity and one memo cache for its operators.
// Signal probability evaluation is a single linear pass over the DAG,
// which is what makes BDD-based probability estimation attractive for the
// iterative phase-assignment loop.
//
// The engine is map-free on every hot path, following the BuDDy/CUDD
// design: a node stores its variable, the unique table is an array of
// bucket heads chained through a link kept inside each node and grows
// at load 1, the operator memo is a fixed-size lossy direct-mapped
// cache, and node storage grows in chunks. A node's table key
// (variable, lo, hi) does not depend on the order, so an adjacent-level
// swap touches only the nodes it rewrites (see reorder.go). A reorder
// detaches the unique table — a swap interns through a small index of
// its own, and the chains are rebuilt once when the reorder ends — and
// carries each sifted variable back over measured orders by undoing
// logged swaps, checking the node cap where the reverse swap would
// have. Lossy caches never change results — a missed memo merely
// recomputes the same canonical node — so Ref identity and node counts
// are exactly those of an unbounded-memo build.
package bdd

import (
	"fmt"
	"sort"

	"repro/internal/budget"
)

// Ref is a reference to a BDD node within one Manager. The terminals are
// False (0) and True (1).
type Ref int32

// Terminal node references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	v      int32 // decision variable; NumVars for the terminals
	lo, hi Ref
	// next is the next node in its unique-table chain (False ends it);
	// while a reorder runs, the node's index in its variable's node list.
	next Ref
}

const (
	opAnd uint8 = iota
	opOr
	opXor
	opNot // unary: cached with b == a
)

// binopEntry is one direct-mapped operator cache slot. A zeroed entry is
// empty: cached calls always have non-terminal operands (terminal cases
// return before the cache), so a == False never collides with a live
// entry.
type binopEntry struct {
	a, b, r Ref
	op      uint8
}

const (
	// nodeChunk is the minimum node-storage growth step: capacity grows
	// by max(nodeChunk, cap/2), i.e. whole chunks while small and 1.5×
	// geometric beyond two chunks.
	nodeChunk = 4096
	// maxCacheSize bounds the lossy memo caches (entries, power of two).
	// Caches are rescaled together with the unique table so big builds
	// keep a useful hit rate without per-node bookkeeping.
	maxCacheSize = 1 << 16
	// defaultSizeHint is the node-count hint used when the caller gives
	// none, chosen so circuit-scale builds (~1.5k nodes) never regrow
	// their tables.
	defaultSizeHint = 1536
	// minUniqueSize is the smallest unique-table/cache size (power of
	// two) a size hint can produce — tiny cone managers stay tiny.
	minUniqueSize = 1 << 6
)

// Manager owns a shared ROBDD forest over a fixed number of variables.
// Variables are identified by index 0..NumVars-1; the variable order is
// set at construction (level i holds variable order[i]) and changed only
// by reordering. A manager has one lifetime: construct it with its
// order, attach a budget (SetBudget) and then auto-reorder
// (SetAutoReorder), build into it (BuildNetwork), and drop it. Nothing
// resets a manager.
type Manager struct {
	nodes []node

	// unique is the chained table interning (variable, lo, hi) triples:
	// bucket b holds the first node of its chain (False = empty) and each
	// node links to the next, so keys and links live in the nodes slice
	// itself and the table is a bare []Ref.
	unique      []Ref
	uniqueCount int
	// free holds the node slots a reorder collected, sorted ascending
	// when collected and popped from the end by mk and mkSwap (an undone
	// swap pushes back what it popped). It outlives the reorder, so
	// post-reorder builds refill the holes instead of growing node
	// storage; the next collection merges what is left with its own
	// garbage.
	free []Ref

	// binop is the lossy direct-mapped operation cache.
	binop []binopEntry

	// varAtLevel[l] = variable index decided at level l;
	// levelOfVar[v] = level of variable v, and levelOfVar[NumVars] =
	// NumVars, the terminals' level below every variable.
	varAtLevel []int32
	levelOfVar []int32

	// budget, when non-nil, is polled on the fresh-node intern path:
	// node-cap compare every insert, cancellation check every
	// cancelPollInterval inserts (see interrupt.go).
	budget *budget.T

	// Reordering state (see reorder.go): rs is the bookkeeping of the
	// running reorder (nil outside one; the unique table is detached
	// while it is set), protected holds the registered root slices, and
	// nextReorderAt is the live-node count the next automatic reorder
	// triggers at.
	rs            *reorderState
	protected     [][]Ref
	autoReorder   bool
	nextReorderAt int
	reorders      int
}

// New creates a manager over numVars variables in natural order
// (variable i at level i).
func New(numVars int) *Manager {
	return NewSized(numVars, defaultSizeHint)
}

// NewSized is New with an expected-node-count hint: storage and tables
// start sized for roughly sizeHint nodes, so callers building many tiny
// BDDs (per-cone probability estimation, say) don't pay circuit-scale
// preallocation per manager. The hint affects memory only, never
// results.
func NewSized(numVars, sizeHint int) *Manager {
	order := make([]int, numVars)
	for i := range order {
		order[i] = i
	}
	return NewWithOrderSized(numVars, order, sizeHint)
}

// NewWithOrder creates a manager whose level l decides variable order[l].
// order must be a permutation of 0..numVars-1.
func NewWithOrder(numVars int, order []int) *Manager {
	return NewWithOrderSized(numVars, order, defaultSizeHint)
}

// NewWithOrderSized is NewWithOrder with NewSized's node-count hint.
func NewWithOrderSized(numVars int, order []int, sizeHint int) *Manager {
	if len(order) != numVars {
		panic(orderError(fmt.Sprintf("bdd: order length %d != numVars %d", len(order), numVars)))
	}
	if sizeHint < 2 {
		sizeHint = 2
	}
	tab := minUniqueSize
	for tab < sizeHint && tab < maxCacheSize {
		tab *= 2
	}
	nodeCap := sizeHint + 2
	m := &Manager{
		nodes:      make([]node, 2, nodeCap),
		unique:     make([]Ref, tab),
		binop:      make([]binopEntry, tab),
		varAtLevel: make([]int32, numVars),
		levelOfVar: make([]int32, numVars+1),
	}
	seen := make([]bool, numVars)
	for l, v := range order {
		if v < 0 || v >= numVars || seen[v] {
			panic(orderError(fmt.Sprintf("bdd: order is not a permutation at position %d", l)))
		}
		seen[v] = true
		m.varAtLevel[l] = int32(v)
		m.levelOfVar[v] = int32(l)
	}
	// Terminal sentinels: a variable decided below all others.
	m.levelOfVar[numVars] = int32(numVars)
	m.nodes[False] = node{v: int32(numVars), lo: False, hi: False}
	m.nodes[True] = node{v: int32(numVars), lo: True, hi: True}
	return m
}

// NumVars returns the number of variables the manager was created with.
func (m *Manager) NumVars() int { return len(m.varAtLevel) }

// Size returns the number of node slots: the terminals, every interned
// node, and the slots a reorder collected that no node has reused yet.
func (m *Manager) Size() int { return len(m.nodes) }

// Order returns the current variable order (level -> variable index).
func (m *Manager) Order() []int {
	o := make([]int, len(m.varAtLevel))
	for l, v := range m.varAtLevel {
		o[l] = int(v)
	}
	return o
}

// LevelOf returns the level at which variable v is decided.
func (m *Manager) LevelOf(v int) int { return int(m.levelOfVar[v]) }

// tripleHash mixes a (key, lo, hi) triple into a table index seed
// (Fibonacci-style multiplicative hashing over the packed key).
func tripleHash(key int32, lo, hi Ref) uint64 {
	h := uint64(uint32(key))*0x9E3779B97F4A7C15 ^
		uint64(uint32(lo))*0xBF58476D1CE4E5B9 ^
		uint64(uint32(hi))*0x94D049BB133111EB
	h ^= h >> 29
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 32
	return h
}

// home is the unique-table bucket a (variable, lo, hi) triple hashes
// to. It does not depend on the order, so a node keeps its bucket while
// a swap moves its variable to another level.
func (m *Manager) home(v int32, lo, hi Ref) uint64 {
	return tripleHash(v, lo, hi) & uint64(len(m.unique)-1)
}

// growUnique doubles the bucket array and re-chains every interned node.
func (m *Manager) growUnique() {
	old := m.unique
	m.resetUnique(2 * len(old))
	for _, r := range old {
		for r != False {
			n := &m.nodes[r]
			next := n.next
			b := m.home(n.v, n.lo, n.hi)
			n.next, m.unique[b] = m.unique[b], r
			r = next
		}
	}
}

// resetUnique replaces the bucket array with size empty buckets. The
// lossy operation cache is rescaled alongside (up to maxCacheSize);
// dropping its contents is sound (the cache is advisory) and keeps
// resizing O(1) amortized.
func (m *Manager) resetUnique(size int) {
	m.unique = make([]Ref, size)
	if size <= maxCacheSize && size > len(m.binop) {
		m.binop = make([]binopEntry, size)
	}
}

// uniqueInsert pushes an already-built node onto the chain of bucket b,
// its home (no lookup — the caller guarantees the triple is absent),
// doubling the bucket array first when the table is at load 1.
func (m *Manager) uniqueInsert(r Ref, b uint64) {
	n := &m.nodes[r]
	if m.uniqueCount == len(m.unique) {
		m.growUnique()
		b = m.home(n.v, n.lo, n.hi)
	}
	n.next, m.unique[b] = m.unique[b], r
	m.uniqueCount++
}

// newNode stores (v, lo, hi) in a collected slot when one is free, else
// appends it to node storage, which grows chunk-wise. It does not
// intern the node.
func (m *Manager) newNode(v int32, lo, hi Ref) Ref {
	if k := len(m.free); k > 0 {
		r := m.free[k-1]
		m.free = m.free[:k-1]
		m.nodes[r] = node{v: v, lo: lo, hi: hi}
		return r
	}
	if len(m.nodes) == cap(m.nodes) {
		step := cap(m.nodes) / 2
		if step < nodeChunk {
			step = nodeChunk
		}
		ns := make([]node, len(m.nodes), cap(m.nodes)+step)
		copy(ns, m.nodes)
		m.nodes = ns
	}
	m.nodes = append(m.nodes, node{v: v, lo: lo, hi: hi})
	return Ref(len(m.nodes) - 1)
}

// mk is the build path's intern: it returns the node (v, lo, hi),
// interning a fresh one on a miss and polling the budget for it. A
// triple with lo == hi is reduced to lo.
func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	b := m.home(v, lo, hi)
	for r := m.unique[b]; r != False; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.v == v && n.lo == lo && n.hi == hi {
			return r
		}
	}
	r := m.newNode(v, lo, hi)
	m.uniqueInsert(r, b)
	if m.budget != nil {
		m.pollBudget(m.uniqueCount)
	}
	return r
}

// Var returns the BDD for the single variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.NumVars() {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD for the complemented variable v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(int32(v), True, False)
}

// level returns the level r's variable is decided at (NumVars for the
// terminals).
func (m *Manager) level(r Ref) int32 { return m.levelOfVar[m.nodes[r].v] }

// cofactors returns the (lo, hi) cofactors of r with respect to
// variable v.
func (m *Manager) cofactors(r Ref, v int32) (Ref, Ref) {
	n := &m.nodes[r]
	if n.v == v {
		return n.lo, n.hi
	}
	return r, r
}

// Top returns the variable f's root decides — in a reduced ordered BDD
// the top variable of f's support — and f's cofactors with respect to
// it, the root's children. A terminal decides no variable: Top returns
// NumVars and f, f.
func (m *Manager) Top(f Ref) (v int, lo, hi Ref) {
	n := &m.nodes[f]
	return int(n.v), n.lo, n.hi
}

// Not returns the complement of f. It builds the lo branch before the hi
// branch, the order ITE(f, False, True) builds in, which the node order
// of every pinned build depends on.
func (m *Manager) Not(f Ref) Ref {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	slot := &m.binop[tripleHash(int32(opNot), f, f)&uint64(len(m.binop)-1)]
	if slot.op == opNot && slot.a == f {
		return slot.r
	}
	n := m.nodes[f]
	r := m.mk(n.v, m.Not(n.lo), m.Not(n.hi))
	// Re-resolve the slot: recursion may have rescaled the cache.
	slot = &m.binop[tripleHash(int32(opNot), f, f)&uint64(len(m.binop)-1)]
	*slot = binopEntry{a: f, b: f, r: r, op: opNot}
	return r
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.apply(opAnd, f, g) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.apply(opOr, f, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.apply(opXor, f, g) }

func (m *Manager) apply(op uint8, f, g Ref) Ref {
	// Terminal rules.
	switch op {
	case opAnd:
		if f == False || g == False {
			return False
		}
		if f == True {
			return g
		}
		if g == True {
			return f
		}
		if f == g {
			return f
		}
	case opOr:
		if f == True || g == True {
			return True
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f == g {
			return f
		}
	case opXor:
		if f == g {
			return False
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
		if f == True {
			return m.Not(g)
		}
		if g == True {
			return m.Not(f)
		}
	}
	// Normalize operand order for the commutative cache.
	if f > g {
		f, g = g, f
	}
	slot := &m.binop[tripleHash(int32(op), f, g)&uint64(len(m.binop)-1)]
	if slot.op == op && slot.a == f && slot.b == g {
		return slot.r
	}
	v := m.varAtLevel[min(m.level(f), m.level(g))]
	f0, f1 := m.cofactors(f, v)
	g0, g1 := m.cofactors(g, v)
	r := m.mk(v, m.apply(op, f0, g0), m.apply(op, f1, g1))
	// Re-resolve the slot: recursion may have rescaled the cache.
	slot = &m.binop[tripleHash(int32(op), f, g)&uint64(len(m.binop)-1)]
	*slot = binopEntry{a: f, b: g, r: r, op: op}
	return r
}

// Restrict returns f with variable v fixed to val.
func (m *Manager) Restrict(f Ref, v int, val bool) Ref {
	lv := m.levelOfVar[v]
	memo := make([]Ref, len(m.nodes))
	seen := make([]bool, len(m.nodes))
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		if m.level(r) > lv {
			return r
		}
		if seen[r] {
			return memo[r]
		}
		n := m.nodes[r]
		var res Ref
		if n.v == int32(v) {
			if val {
				res = n.hi
			} else {
				res = n.lo
			}
		} else {
			res = m.mk(n.v, rec(n.lo), rec(n.hi))
		}
		// memo/seen are sized for the pre-call node count; mk may have
		// created nodes since, but only pre-existing refs are memoized
		// (rec is called on subgraphs of f only).
		memo[r] = res
		seen[r] = true
		return res
	}
	return rec(f)
}

// Eval evaluates f under a complete variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	if len(assignment) != m.NumVars() {
		panic(fmt.Sprintf("bdd: assignment length %d != %d vars", len(assignment), m.NumVars()))
	}
	r := f
	for r != True && r != False {
		n := &m.nodes[r]
		if assignment[n.v] {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// Support returns the sorted variable indexes f depends on.
func (m *Manager) Support(f Ref) []int {
	seen := make([]bool, len(m.nodes))
	vars := make([]bool, m.NumVars())
	var rec func(Ref)
	rec = func(r Ref) {
		if r == True || r == False || seen[r] {
			return
		}
		seen[r] = true
		n := &m.nodes[r]
		vars[n.v] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	var out []int
	for v, in := range vars {
		if in {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// NodeCount returns the number of distinct non-terminal nodes reachable
// from the given roots. This is the "non-leaf BDD nodes" measure the
// paper's Figure 10 compares variable orders with.
func (m *Manager) NodeCount(roots ...Ref) int {
	seen := make([]bool, len(m.nodes))
	count := 0
	var rec func(Ref)
	rec = func(r Ref) {
		if r == True || r == False || seen[r] {
			return
		}
		seen[r] = true
		count++
		n := &m.nodes[r]
		rec(n.lo)
		rec(n.hi)
	}
	for _, r := range roots {
		rec(r)
	}
	return count
}

// Probability returns P[f = 1] when variable v is an independent Bernoulli
// with P[v=1] = probs[v]. For a BDD this is exact and linear in the number
// of nodes:
//
//	P(node) = (1−p)·P(lo) + p·P(hi)
//
// which is precisely why the paper computes signal probabilities on BDDs.
func (m *Manager) Probability(f Ref, probs []float64) float64 {
	if len(probs) != m.NumVars() {
		panic(fmt.Sprintf("bdd: probs length %d != %d vars", len(probs), m.NumVars()))
	}
	memo := make([]float64, len(m.nodes))
	seen := make([]bool, len(m.nodes))
	return m.probability(f, probs, memo, seen)
}

// ProbabilityMany evaluates P[f=1] for many roots sharing one memo table,
// which matters when the roots share structure (they do: the paper's
// variable ordering heuristic is designed to maximize that sharing).
func (m *Manager) ProbabilityMany(roots []Ref, probs []float64) []float64 {
	if len(probs) != m.NumVars() {
		panic(fmt.Sprintf("bdd: probs length %d != %d vars", len(probs), m.NumVars()))
	}
	memo := make([]float64, len(m.nodes))
	seen := make([]bool, len(m.nodes))
	out := make([]float64, len(roots))
	for i, r := range roots {
		out[i] = m.probability(r, probs, memo, seen)
	}
	return out
}

func (m *Manager) probability(f Ref, probs []float64, memo []float64, seen []bool) float64 {
	if f == False {
		return 0
	}
	if f == True {
		return 1
	}
	if seen[f] {
		return memo[f]
	}
	n := &m.nodes[f]
	p := probs[n.v]
	res := (1-p)*m.probability(n.lo, probs, memo, seen) + p*m.probability(n.hi, probs, memo, seen)
	memo[f] = res
	seen[f] = true
	return res
}

// String renders a node for debugging.
func (m *Manager) String(f Ref) string {
	switch f {
	case False:
		return "0"
	case True:
		return "1"
	}
	n := &m.nodes[f]
	return fmt.Sprintf("node(%d: var x%d, lo=%s, hi=%s)", f, n.v, m.String(n.lo), m.String(n.hi))
}
