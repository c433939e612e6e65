package bdd

import (
	"math/bits"
	"slices"
	"sort"
)

// In-place dynamic variable reordering — Rudell's sifting (ICCAD'93, the
// CUDD/BuDDy lineage) — on the chained unique table.
//
// The reordering contract:
//
//   - Swaps and Reorder preserve the *slots* (Refs) of every node
//     reachable from a protected root. A swap of adjacent levels l/l+1
//     (variables x above y) rewrites only the dependents: the x-nodes
//     with a y child, rewritten in place as deciders of y
//     (F = y ? (x?f11:f01) : (x?f10:f00)). Every other node stores its
//     variable, not its level, so it keeps its triple, its table chain
//     and its Ref while its variable changes level. External Refs into
//     the protected forest therefore stay valid across any number of
//     swaps.
//   - A swap of two variables that no protected root depends on both of
//     has no dependent (a node of one with a child of the other would
//     make some root depend on both), so it only exchanges their levels.
//     An interaction matrix built with the reorder state answers that
//     test in constant time (CUDD's cuddTestInteract); a swap changes no
//     function, so one matrix serves the whole reorder.
//   - Every Ref *not* reachable from a protected root is invalidated:
//     reorder-state setup garbage-collects unreachable interned nodes,
//     and their slots go to the manager's free list, which swap-created
//     nodes and, after the reorder, mk refill.
//   - Every decision — sift order, tie-breaks, growth aborts, budget
//     trips, the auto-reorder trigger — reads only live-node counts,
//     which are canonical for an order, so a build+reorder sequence
//     gives the same orders, counts and probabilities across processes,
//     worker counts and table sizes, and dominod may cache its results.
//     Slot assignment and table layout are deterministic too, but
//     nothing may read them.
//
// The budget token is polled per swap (cancellation) and per created
// node (node cap + cancellation), so both land inside a reorder as the
// usual CUDD-style interrupt panic; the build boundary (or Reorder's own
// CatchInterrupt) converts it to an error and the manager is left
// unusable-but-not-corrupt, to be dropped. A dependent stays interned
// until its own rewrite, so inside a swap the cap sees the live count at
// the swap's start plus the nodes it has created, and where a reorder
// trips is a function of the forest and the order alone, like its sift
// decisions.

// reorderState is the ephemeral bookkeeping a reorder needs: reference
// counts, a per-variable node index (swap cost proportional to the
// upper variable's population), the interaction matrix, and scratch
// space the swaps reuse. It is built on demand from the protected roots
// and dropped when a reorder ends or any ordinary mk interns a node the
// state doesn't know about.
type reorderState struct {
	// refcnt[r] = number of live parents of r plus one pin per protected
	// occurrence. Terminals accumulate counts but are never collected.
	refcnt []int32
	// pos[r] = index of r in vars[nodes[r].v].
	pos []int32
	// vars[v] lists the live nodes deciding variable v.
	vars [][]Ref
	// interact is the NumVars × NumVars bit matrix, words uint64s per
	// row: bit y of row x is set when some protected root depends on
	// both x and y.
	interact []uint64
	words    int
	// dead is the deferred death worklist shared across swaps.
	dead []Ref
	// deps is the swaps' shared dependent scratch list.
	deps []depNode
}

// interacts reports whether some protected root depends on both x and y.
func (rs *reorderState) interacts(x, y int32) bool {
	return rs.interact[int(x)*rs.words+int(y)/64]>>(y%64)&1 != 0
}

// depNode is a dependent of a swap: an x-node with a y child (x the
// upper variable, y the lower one), and the four grandchildren it is
// rewritten from: f_xy for x, y in {0, 1}.
type depNode struct {
	r                  Ref
	f00, f01, f10, f11 Ref
}

const (
	// autoReorderFloor is the smallest live-node count an automatic
	// reorder can trigger at (unless a budget fraction point is lower) —
	// tiny per-cone builds never pay a sift.
	autoReorderFloor = 4096
	// autoReorderFraction of MaxBDDNodes at which an automatic reorder
	// fires even before live nodes double.
	autoReorderFraction = 0.5
	// autoReorderMinStep is the divisor of MaxBDDNodes that bounds how
	// soon a budgeted build may sift again: once the manager has
	// reordered, the next trigger lies at least
	// MaxBDDNodes/autoReorderMinStep above the live count, so a sift
	// that lands just under the fraction point does not re-arm it a few
	// nodes later.
	autoReorderMinStep = 4
)

// Protect registers roots as protected across reorders: nodes reachable
// from any registered slice survive swaps and Reorder with their Refs
// intact. The slice is aliased, not copied — its *current* contents are
// re-read whenever reorder state is built, so a caller may register a
// result slice up front and fill it as a build progresses
// (BuildNetwork does exactly that). Registrations last as long as the
// manager.
func (m *Manager) Protect(roots []Ref) {
	m.protected = append(m.protected, roots)
	m.rs = nil
}

// LiveNodes returns the number of interned non-terminal nodes. Before
// any reorder this equals Size()-2; after a reorder it counts only live
// nodes (collected slots are excluded).
func (m *Manager) LiveNodes() int { return m.uniqueCount }

// Reorders returns the number of completed in-place reorders over the
// manager's lifetime.
func (m *Manager) Reorders() int { return m.reorders }

// SetAutoReorder enables or disables automatic reordering at safe points
// during BuildNetwork builds. When enabled, a reorder fires once live
// nodes double since the last reorder (with a floor of 4096) or cross
// half of the budget's MaxBDDNodes; under a budget, a trigger after a
// reorder lies at least a quarter of MaxBDDNodes above the live count
// that reorder left.
// The triggers are pure functions of table state, so enabling
// auto-reorder keeps builds deterministic. Call it after SetBudget: the
// first trigger point reads the budget's fraction point.
func (m *Manager) SetAutoReorder(on bool) {
	m.autoReorder = on
	if on {
		m.scheduleNextReorder()
	}
}

// scheduleNextReorder fixes the live-node count the next automatic
// reorder triggers at: double the current live count (floored), pulled
// down to the budget-fraction point when that lies ahead of the current
// size. Once the manager has reordered, a budgeted trigger is then
// raised to at least the live count plus MaxBDDNodes/autoReorderMinStep;
// the first trigger and unbudgeted schedules are not.
func (m *Manager) scheduleNextReorder() {
	next := 2 * m.uniqueCount
	if next < autoReorderFloor {
		next = autoReorderFloor
	}
	if m.budget != nil {
		if mx := m.budget.MaxBDDNodes(); mx > 0 {
			if fp := int(autoReorderFraction * float64(mx)); fp > m.uniqueCount && fp < next {
				next = fp
			}
			if m.reorders > 0 {
				next = max(next, m.uniqueCount+mx/autoReorderMinStep)
			}
		}
	}
	m.nextReorderAt = next
}

// maybeReorder runs an automatic reorder when the trigger point is
// reached. It must only be called at safe points — between node
// operations, never from inside an apply/ITE recursion — and panics
// with the usual typed interrupt on budget trip or cancellation.
func (m *Manager) maybeReorder() {
	if !m.autoReorder || m.uniqueCount < m.nextReorderAt {
		return
	}
	m.reorderNow()
	m.scheduleNextReorder()
}

// Reorder runs one full sifting pass in place: variables are sifted
// largest-level-first (ties by lower variable index) through every
// position, each left at the position minimizing the live node count
// (first position found on a strict improvement — deterministic), with
// a 1.2× growth abort per direction. Refs reachable from protected
// roots remain valid; all others are invalidated. A budget trip or
// cancellation mid-reorder returns an error and leaves the manager
// unusable: drop it.
func (m *Manager) Reorder() error { return CatchInterrupt(m.reorderNow) }

// reorderNow is the panicking core of Reorder, also invoked by the
// auto-reorder trigger inside builds.
func (m *Manager) reorderNow() {
	if m.NumVars() < 2 {
		return
	}
	if m.rs == nil {
		m.buildReorderState()
	}
	defer func() { m.rs = nil }()
	// Sift order: start-population descending, variable index ascending.
	type cand struct{ v, pop int }
	cands := make([]cand, 0, m.NumVars())
	for v := 0; v < m.NumVars(); v++ {
		if pop := len(m.rs.vars[v]); pop > 0 {
			cands = append(cands, cand{v, pop})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pop != cands[j].pop {
			return cands[i].pop > cands[j].pop
		}
		return cands[i].v < cands[j].v
	})
	for _, c := range cands {
		m.siftVar(c.v)
	}
	m.reorders++
}

// siftVar moves variable v through every level — down to the bottom,
// then up to the top — tracking the live node count after each swap,
// then parks it at the best position found. A direction aborts once the
// count exceeds 1.2× the size at sift start.
func (m *Manager) siftVar(v int) {
	start := m.uniqueCount
	limit := start + start/5
	n := m.NumVars()
	pos := int(m.levelOfVar[v])
	bestSize, bestPos := start, pos
	size := start
	for pos < n-1 {
		m.swapLevels(pos)
		pos++
		size = m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for pos > 0 {
		m.swapLevels(pos - 1)
		pos--
		size = m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for pos < bestPos {
		m.swapLevels(pos)
		pos++
	}
	for pos > bestPos {
		m.swapLevels(pos - 1)
		pos--
	}
}

// buildReorderState marks the protected forest, builds the per-variable
// index and reference counts, garbage-collects unreachable interned
// nodes (their slots join the free list), builds the interaction matrix,
// and drops the operation caches (their entries may name collected
// slots).
func (m *Manager) buildReorderState() {
	numVars := m.NumVars()
	rs := &reorderState{
		refcnt: make([]int32, len(m.nodes)),
		pos:    make([]int32, len(m.nodes)),
		vars:   make([][]Ref, numVars),
		words:  (numVars + 63) / 64,
	}
	seen := make([]bool, len(m.nodes))
	seen[False], seen[True] = true, true
	var mark func(Ref)
	mark = func(r Ref) {
		if seen[r] {
			return
		}
		seen[r] = true
		n := &m.nodes[r]
		mark(n.lo)
		mark(n.hi)
		rs.refcnt[n.lo]++
		rs.refcnt[n.hi]++
	}
	for _, roots := range m.protected {
		for _, r := range roots {
			mark(r)
			rs.refcnt[r]++ // pin: protected nodes never die
		}
	}
	// Garbage collection: interned nodes unreachable from any protected
	// root are unlinked from their chains; their slots join the ones
	// still free from earlier collections, sorted ascending so slot reuse
	// is independent of hash-table layout.
	free := m.free
	for b := range m.unique {
		link := &m.unique[b]
		for r := *link; r != False; r = *link {
			if seen[r] {
				link = &m.nodes[r].next
				continue
			}
			*link = m.nodes[r].next
			m.uniqueCount--
			free = append(free, r)
		}
	}
	slices.Sort(free)
	m.free = free
	for r := 2; r < len(m.nodes); r++ {
		if !seen[r] {
			continue
		}
		v := m.nodes[r].v
		rs.pos[r] = int32(len(rs.vars[v]))
		rs.vars[v] = append(rs.vars[v], Ref(r))
	}
	m.buildInteract(rs)
	// The lossy cache may hold entries naming collected slots; it is
	// advisory for results but must not resolve to reused slots.
	for i := range m.binop {
		m.binop[i] = binopEntry{}
	}
	m.rs = rs
}

// buildInteract fills rs.interact: every protected root's support is
// ORed into the row of each variable in it. Supports are bitsets
// computed for each live node, children before parents (bottom level
// first).
func (m *Manager) buildInteract(rs *reorderState) {
	w := rs.words
	supp := make([]uint64, len(m.nodes)*w) // terminals' rows stay empty
	for l := m.NumVars() - 1; l >= 0; l-- {
		v := m.varAtLevel[l]
		for _, r := range rs.vars[v] {
			n := &m.nodes[r]
			s, lo, hi := supp[int(r)*w:][:w], supp[int(n.lo)*w:][:w], supp[int(n.hi)*w:][:w]
			for i := range s {
				s[i] = lo[i] | hi[i]
			}
			s[v/64] |= 1 << (v % 64)
		}
	}
	rs.interact = make([]uint64, m.NumVars()*w)
	for _, roots := range m.protected {
		for _, r := range roots {
			s := supp[int(r)*w:][:w]
			for i, word := range s {
				for ; word != 0; word &= word - 1 {
					row := rs.interact[(64*i+bits.TrailingZeros64(word))*w:][:w]
					for j := range row {
						row[j] |= s[j]
					}
				}
			}
		}
	}
}

// swapLevels is the in-place adjacent swap of x, the variable at level
// l, and y, the one at l+1. Non-interacting variables only exchange
// levels. Otherwise x's nodes are classified: those without a y child
// (movers) stay as they are, and each dependent snapshots its
// grandchildren, interns its two new x-children (sharing with movers
// and with the nodes the swap has made), leaves its chain, is rewritten
// as a y-node and re-enters the table. Deaths cascade last.
func (m *Manager) swapLevels(l int) {
	if m.budget != nil {
		if err := m.budget.Err(); err != nil {
			panic(buildInterrupt{err})
		}
	}
	rs := m.rs
	x, y := m.varAtLevel[l], m.varAtLevel[l+1]
	m.swapVarMaps(l)
	if !rs.interacts(x, y) {
		return
	}
	// Classify x-nodes: movers are compacted in place into the list's
	// front; dependents leave it for y's.
	movers, deps := rs.vars[x][:0], rs.deps[:0]
	for _, r := range rs.vars[x] {
		n := &m.nodes[r]
		d := depNode{r: r, f00: n.lo, f01: n.lo, f10: n.hi, f11: n.hi}
		isDep := false
		if c := &m.nodes[n.lo]; c.v == y {
			d.f00, d.f01 = c.lo, c.hi
			isDep = true
		}
		if c := &m.nodes[n.hi]; c.v == y {
			d.f10, d.f11 = c.lo, c.hi
			isDep = true
		}
		if isDep {
			deps = append(deps, d)
		} else {
			rs.pos[r] = int32(len(movers))
			movers = append(movers, r)
		}
	}
	rs.vars[x], rs.deps = movers, deps
	// Rewrite dependents in place as deciders of y:
	// F = y ? (x?f11:f01) : (x?f10:f00). Distinct canonical functions
	// produce distinct triples, so the reinsertions never collide; mkSwap
	// interns the two new x-cofactors with full sharing.
	for _, d := range deps {
		g0 := m.mkSwap(x, d.f00, d.f10)
		g1 := m.mkSwap(x, d.f01, d.f11)
		m.uniqueDelete(d.r)
		n := &m.nodes[d.r]
		of0, of1 := n.lo, n.hi
		n.v, n.lo, n.hi = y, g0, g1
		m.uniqueInsert(d.r, m.home(y, g0, g1))
		rs.pos[d.r] = int32(len(rs.vars[y]))
		rs.vars[y] = append(rs.vars[y], d.r)
		rs.refcnt[g0]++
		rs.refcnt[g1]++
		m.deferDecRef(of0)
		m.deferDecRef(of1)
	}
	m.collectDead()
}

// mkSwap interns (v, lo, hi) during a swap: unique-table sharing with
// movers and previously created nodes, slot reuse from the free list,
// variable index and refcount maintenance, and a budget poll. It
// bypasses the operation caches entirely. The swap's dependents are
// still interned, so the node cap sees the swap's starting size plus
// the nodes it has created, whatever the order of its dependents.
func (m *Manager) mkSwap(v int32, lo, hi Ref) Ref {
	r, fresh := m.intern(v, lo, hi)
	if !fresh {
		return r
	}
	rs := m.rs
	if int(r) == len(rs.refcnt) {
		rs.refcnt = append(rs.refcnt, 0)
		rs.pos = append(rs.pos, 0)
	}
	rs.refcnt[r] = 0
	rs.refcnt[lo]++
	rs.refcnt[hi]++
	rs.pos[r] = int32(len(rs.vars[v]))
	rs.vars[v] = append(rs.vars[v], r)
	if m.budget != nil {
		m.pollBudget(m.uniqueCount)
	}
	return r
}

// deferDecRef decrements a reference count and queues the node for
// collection when it reaches zero. Terminals never queue.
func (m *Manager) deferDecRef(r Ref) {
	rs := m.rs
	rs.refcnt[r]--
	if r > True && rs.refcnt[r] == 0 {
		rs.dead = append(rs.dead, r)
	}
}

// collectDead drains the death worklist: each dead node leaves the
// unique table and its variable's list, releases its children
// (cascading), and frees its slot for reuse.
func (m *Manager) collectDead() {
	rs := m.rs
	for len(rs.dead) > 0 {
		r := rs.dead[len(rs.dead)-1]
		rs.dead = rs.dead[:len(rs.dead)-1]
		if rs.refcnt[r] != 0 {
			continue
		}
		n := &m.nodes[r]
		m.uniqueDelete(r)
		list := rs.vars[n.v]
		p := rs.pos[r]
		last := list[len(list)-1]
		list[p] = last
		rs.pos[last] = p
		rs.vars[n.v] = list[:len(list)-1]
		m.deferDecRef(n.lo)
		m.deferDecRef(n.hi)
		m.free = append(m.free, r)
	}
}

// swapVarMaps exchanges the variable↔level maps for levels l and l+1.
func (m *Manager) swapVarMaps(l int) {
	x, y := m.varAtLevel[l], m.varAtLevel[l+1]
	m.varAtLevel[l], m.varAtLevel[l+1] = y, x
	m.levelOfVar[x], m.levelOfVar[y] = int32(l+1), int32(l)
}
