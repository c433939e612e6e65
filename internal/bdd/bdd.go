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
// design: the unique table is an open-addressed (linear-probe) hash table
// over packed (variable, lo, hi) triples that grows at 3/4 load, the
// operator memo is a fixed-size lossy direct-mapped cache, and node
// storage grows in chunks. Keying by variable rather than level lets
// an adjacent-level swap leave every node whose triple it keeps in its
// slot (see reorder.go). Lossy caches never change results — a missed
// memo merely recomputes the same canonical node — so Ref identity and
// node counts are exactly those of an unbounded-memo build.
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
	level  int32 // position of the decision variable in the current order
	lo, hi Ref
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

	// unique is the open-addressed table interning (variable, lo, hi)
	// triples; slots hold a Ref into nodes (False = empty). Keys live in
	// the nodes slice itself (the variable as varAtLevel[level]), so the
	// table is a bare []Ref.
	unique      []Ref
	uniqueCount int
	// free holds the node slots a reorder collected, sorted ascending
	// when collected and popped from the end by mk and mkSwap. It
	// outlives the reorder, so post-reorder builds refill the holes
	// instead of growing node storage; the next collection merges what
	// is left with its own garbage.
	free []Ref

	// binop is the lossy direct-mapped operation cache.
	binop []binopEntry

	// varAtLevel[l] = variable index decided at level l;
	// levelOfVar[v] = level of variable v.
	varAtLevel []int32
	levelOfVar []int32

	// budget, when non-nil, is polled on the fresh-node intern path:
	// node-cap compare every insert, cancellation check every
	// cancelPollInterval inserts (see interrupt.go).
	budget *budget.T

	// Reordering state (see reorder.go): rs is the ephemeral swap
	// bookkeeping (dropped whenever an ordinary mk interns a node it
	// doesn't know about), protected holds the registered root slices,
	// and nextReorderAt is the live-node count the next automatic
	// reorder triggers at.
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
	for 3*tab/4 < sizeHint && tab < maxCacheSize {
		tab *= 2
	}
	nodeCap := sizeHint + 2
	m := &Manager{
		nodes:      make([]node, 2, nodeCap),
		unique:     make([]Ref, tab),
		binop:      make([]binopEntry, tab),
		varAtLevel: make([]int32, numVars),
		levelOfVar: make([]int32, numVars),
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
	// Terminal sentinels: level beyond all variables.
	m.nodes[False] = node{level: int32(numVars), lo: False, hi: False}
	m.nodes[True] = node{level: int32(numVars), lo: True, hi: True}
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

// home is the unique-table slot a (level, lo, hi) triple hashes to: the
// key is the variable decided at that level, so a node keeps its home
// while a swap moves its variable to another level.
func (m *Manager) home(level int32, lo, hi Ref) uint64 {
	return tripleHash(m.varAtLevel[level], lo, hi) & uint64(len(m.unique)-1)
}

// growUnique doubles the open-addressed table and reinserts every interned
// node (keys are read back from the nodes slice). The lossy operation
// cache is rescaled alongside (up to maxCacheSize); dropping its
// contents is sound (the cache is advisory) and keeps resizing O(1)
// amortized.
func (m *Manager) growUnique() {
	old := m.unique
	m.unique = make([]Ref, 2*len(old))
	mask := uint64(len(m.unique) - 1)
	for _, r := range old {
		if r == False {
			continue
		}
		n := &m.nodes[r]
		idx := m.home(n.level, n.lo, n.hi)
		for m.unique[idx] != False {
			idx = (idx + 1) & mask
		}
		m.unique[idx] = r
	}
	if size := len(m.unique); size <= maxCacheSize && size > len(m.binop) {
		m.binop = make([]binopEntry, size)
	}
}

// newNode stores (level, lo, hi) in a collected slot when one is free,
// else appends it to node storage, which grows chunk-wise. It does not
// intern the node.
func (m *Manager) newNode(level int32, lo, hi Ref) Ref {
	if k := len(m.free); k > 0 {
		r := m.free[k-1]
		m.free = m.free[:k-1]
		m.nodes[r] = node{level: level, lo: lo, hi: hi}
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
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	return Ref(len(m.nodes) - 1)
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	idx := m.home(level, lo, hi)
	for {
		r := m.unique[idx]
		if r == False {
			break
		}
		n := &m.nodes[r]
		if n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
		idx = (idx + 1) & mask
	}
	// Miss: intern a fresh node, growing the table at 3/4 load. Any
	// reorder state becomes stale the moment a node it has no books for
	// appears.
	m.rs = nil
	r := m.newNode(level, lo, hi)
	if 4*(m.uniqueCount+1) > 3*len(m.unique) {
		m.growUnique()
		mask = uint64(len(m.unique) - 1)
		idx = m.home(level, lo, hi)
		for m.unique[idx] != False {
			idx = (idx + 1) & mask
		}
	}
	m.unique[idx] = r
	m.uniqueCount++
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
	return m.mk(m.levelOfVar[v], False, True)
}

// NVar returns the BDD for the complemented variable v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(m.levelOfVar[v], True, False)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// cofactors returns the (lo, hi) cofactors of r with respect to the
// variable at the given level.
func (m *Manager) cofactors(r Ref, level int32) (Ref, Ref) {
	n := &m.nodes[r]
	if n.level == level {
		return n.lo, n.hi
	}
	return r, r
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
	r := m.mk(n.level, m.Not(n.lo), m.Not(n.hi))
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
	lf, lg := m.level(f), m.level(g)
	top := lf
	if lg < top {
		top = lg
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	r := m.mk(top, m.apply(op, f0, g0), m.apply(op, f1, g1))
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
		n := &m.nodes[r]
		if n.level > lv {
			return r
		}
		if seen[r] {
			return memo[r]
		}
		var res Ref
		if n.level == lv {
			if val {
				res = n.hi
			} else {
				res = n.lo
			}
		} else {
			res = m.mk(n.level, rec(n.lo), rec(n.hi))
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
		if assignment[m.varAtLevel[n.level]] {
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
		vars[m.varAtLevel[n.level]] = true
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
	p := probs[m.varAtLevel[n.level]]
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
	return fmt.Sprintf("node(%d: var x%d, lo=%s, hi=%s)", f, m.varAtLevel[n.level], m.String(n.lo), m.String(n.hi))
}
