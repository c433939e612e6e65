package bdd

import (
	"math/bits"
	"slices"
	"sort"
)

// In-place dynamic variable reordering — Rudell's sifting (ICCAD'93, the
// CUDD/BuDDy lineage).
//
// The reordering contract:
//
//   - Swaps and Reorder preserve the *slots* (Refs) of every node
//     reachable from a protected root. A swap of adjacent levels l/l+1
//     (variables x above y) rewrites only the dependents: the x-nodes
//     with a y child, rewritten in place as deciders of y
//     (F = y ? (x?f11:f01) : (x?f10:f00)). Every other node stores its
//     variable, not its level, so it keeps its triple and its Ref while
//     its variable changes level. External Refs into the protected
//     forest therefore stay valid across any number of swaps.
//   - A swap of two variables that no protected root depends on both of
//     has no dependent (a node of one with a child of the other would
//     make some root depend on both), so it only exchanges their levels.
//     An interaction matrix built with the reorder state answers that
//     test in constant time (CUDD's cuddTestInteract); a swap changes no
//     function, so one matrix serves the whole reorder.
//   - The unique table is detached while a reorder runs: no lookup
//     inside one needs its chains, so a node's chain link holds its
//     index in its variable's node list instead. A swap's new x-nodes
//     have both children below y, so they can only equal an x-node
//     without a y child (a mover) or a node the swap made itself; a
//     small per-swap index over x's nodes interns them. Rewritten
//     dependents never collide (distinct functions have distinct
//     triples), and deaths only leave their variable's list. When the
//     reorder ends, the chains are rebuilt once from the per-variable
//     lists.
//   - Each sift logs its interacting swaps — every dependent with its
//     old children, every slot the swap filled, every node it killed —
//     and carries its variable back over orders it has already measured
//     by undoing them, last first, instead of swapping again: the up
//     pass re-crossing the down pass, and the final move to a best
//     position at or above the start. The reverse swap's dependents are
//     exactly the rewritten ones, and by canonicity it recreates exactly
//     the nodes the swap killed before it collects the ones the swap
//     made, so an undo ends in the reverse swap's forest. The cap is
//     checked only as nodes are created, so the reverse swap trips
//     exactly when the swap killed nodes and the live count plus those
//     nodes — the peak of the swap it reverses — exceeds the cap; an
//     undo checks just that. A transport can therefore trip only under
//     a cap set below the live count, past a swap that created nothing
//     and so never checked it.
//   - Every Ref *not* reachable from a protected root is invalidated:
//     reorder-state setup garbage-collects unreachable interned nodes,
//     and their slots go to the manager's free list, which swap-created
//     nodes and, after the reorder, mk refill. The list is last in,
//     first out, so once later swaps are undone the slots an undone swap
//     freed are back on its top.
//   - Every decision — sift order, tie-breaks, growth aborts, budget
//     trips, the auto-reorder trigger — reads only live-node counts,
//     which are canonical for an order, so a build+reorder sequence
//     gives the same orders, counts and probabilities across processes,
//     worker counts and table sizes, and dominod may cache its results.
//     Slot assignment and table layout are deterministic too, but
//     nothing may read them.
//
// The budget token is polled per swap and per undo (cancellation), per
// node a swap creates (node cap + cancellation) and per undo of a swap
// that killed nodes (node cap), so both land inside a reorder as the
// usual CUDD-style interrupt panic; the build boundary (or Reorder's own
// CatchInterrupt) converts it to an error. A reorder that trips leaves
// the unique table detached, so the manager is unusable and must be
// dropped. A dependent stays counted until its own rewrite, so inside a
// swap the cap sees the live count at the swap's start plus the nodes it
// has created, and where a reorder trips is a function of the forest and
// the order alone, like its sift decisions.

// reorderState is the ephemeral bookkeeping a reorder needs: reference
// counts, a per-variable node index (swap cost proportional to the
// upper variable's population), the interaction matrix, the current
// sift's undo log, and scratch space the swaps reuse. It is built from
// the protected roots when a reorder starts and dropped when it ends.
type reorderState struct {
	// refcnt[r] = number of live parents of r plus one pin per protected
	// occurrence. Terminals accumulate counts but are never collected.
	refcnt []int32
	// vars[v] lists the live nodes deciding variable v; a listed node's
	// next field holds its index in the list.
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
	// index is a swap's open-addressed (lo, hi) → node table over the
	// upper variable's nodes (False = empty slot), probed from the top
	// shift bits of a multiplicative hash.
	index []Ref
	shift uint
	// log holds the current sift's interacting swaps, oldest first. Each
	// record's entries in oldDeps, created and killed run from its
	// offsets to the next record's (or to the end).
	log     []swapRecord
	oldDeps []nodeUndo
	created []Ref
	killed  []nodeUndo
}

// swapRecord locates one interacting swap's undo entries in the logs.
// size is the node storage length when the swap began: a created slot
// at or past it was appended to storage, any other was popped from the
// free list.
type swapRecord struct {
	size, deps, created, killed int
}

// nodeUndo is a node's children as a swap found them: a dependent's
// old children (its old variable was the upper one), or a killed node's.
// A killed node always decided the lower variable: nodes below both
// levels keep their functions, and so their parents.
type nodeUndo struct{ r, lo, hi Ref }

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
// unusable (its unique table detached): drop it.
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
	for _, v := range m.siftOrder() {
		m.siftVar(v)
	}
	m.endReorder()
	m.reorders++
}

// siftOrder returns the variables a reorder sifts, in sifting order:
// start population descending, variable index ascending, variables
// without nodes left out.
func (m *Manager) siftOrder() []int {
	vs := make([]int, 0, len(m.rs.vars))
	for v, list := range m.rs.vars {
		if len(list) > 0 {
			vs = append(vs, v)
		}
	}
	sort.SliceStable(vs, func(i, j int) bool { return len(m.rs.vars[vs[i]]) > len(m.rs.vars[vs[j]]) })
	return vs
}

// siftVar moves variable v through every level — down to the bottom,
// then up to the top — tracking the live node count after each swap,
// then parks it at the best position found. A direction aborts once the
// count exceeds 1.2× the size at sift start. Moves over orders the sift
// has already measured undo logged swaps: the up pass first re-crosses
// the down pass, and the final move re-crosses the up pass, or all of it
// and then swaps on when the best position lies below the start.
func (m *Manager) siftVar(v int) {
	start := m.uniqueCount
	limit := start + start/5
	n := m.NumVars()
	from := int(m.levelOfVar[v])
	pos, bestSize, bestPos := from, start, from
	for pos < n-1 {
		m.swapLevels(pos)
		pos++
		size := m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for ; pos > from; pos-- {
		m.undoSwap(pos - 1)
	}
	for pos > 0 {
		m.swapLevels(pos - 1)
		pos--
		size := m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for ; pos < bestPos && pos < from; pos++ {
		m.undoSwap(pos)
	}
	for ; pos < bestPos; pos++ {
		m.swapLevels(pos)
	}
	rs := m.rs
	rs.log, rs.oldDeps, rs.created, rs.killed = rs.log[:0], rs.oldDeps[:0], rs.created[:0], rs.killed[:0]
}

// buildReorderState marks the protected forest, builds the per-variable
// lists and reference counts, garbage-collects unreachable interned
// nodes (their slots join the free list), detaches the unique table
// (each live node's link now holds its list index), builds the
// interaction matrix, and drops the operation caches (their entries may
// name collected slots).
func (m *Manager) buildReorderState() {
	numVars := m.NumVars()
	rs := &reorderState{
		refcnt: make([]int32, len(m.nodes)),
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
	// root leave the count; their slots join the ones still free from
	// earlier collections, sorted ascending so slot reuse is independent
	// of hash-table layout.
	free := m.free
	for _, head := range m.unique {
		for r := head; r != False; r = m.nodes[r].next {
			if !seen[r] {
				m.uniqueCount--
				free = append(free, r)
			}
		}
	}
	slices.Sort(free)
	m.free = free
	for r := 2; r < len(m.nodes); r++ {
		if !seen[r] {
			continue
		}
		v := m.nodes[r].v
		m.nodes[r].next = Ref(len(rs.vars[v]))
		rs.vars[v] = append(rs.vars[v], Ref(r))
	}
	m.buildInteract(rs)
	// The lossy cache may hold entries naming collected slots; it is
	// advisory for results but must not resolve to reused slots.
	clear(m.binop)
	m.rs = rs
}

// endReorder re-attaches the unique table — every live node is chained
// again from its variable's list, the bucket array doubling until the
// load is at most 1 — and drops the reorder state.
func (m *Manager) endReorder() {
	size := len(m.unique)
	for size < m.uniqueCount {
		size *= 2
	}
	if size > len(m.unique) {
		m.resetUnique(size)
	} else {
		clear(m.unique)
	}
	for v, list := range m.rs.vars {
		for _, r := range list {
			n := &m.nodes[r]
			b := m.home(int32(v), n.lo, n.hi)
			n.next, m.unique[b] = m.unique[b], r
		}
	}
	m.rs = nil
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

// pollCancel is the per-swap cancellation poll.
func (m *Manager) pollCancel() {
	if m.budget != nil {
		if err := m.budget.Err(); err != nil {
			panic(buildInterrupt{err})
		}
	}
}

// swapLevels is the in-place adjacent swap of x, the variable at level
// l, and y, the one at l+1. Non-interacting variables only exchange
// levels. Otherwise the swap is logged, and x's nodes are classified:
// those without a y child (movers) stay as they are and enter the swap's
// index, and each dependent snapshots its grandchildren, interns its two
// new x-children through the index (sharing with movers and with the
// nodes the swap has made) and is rewritten as a y-node. Deaths cascade
// last.
func (m *Manager) swapLevels(l int) {
	m.pollCancel()
	rs := m.rs
	x, y := m.varAtLevel[l], m.varAtLevel[l+1]
	m.swapVarMaps(l)
	if !rs.interacts(x, y) {
		return
	}
	rs.log = append(rs.log, swapRecord{len(m.nodes), len(rs.oldDeps), len(rs.created), len(rs.killed)})
	size := 4
	for size < 4*len(rs.vars[x]) {
		size *= 2
	}
	if cap(rs.index) < size {
		rs.index = make([]Ref, size)
	}
	rs.index = rs.index[:size]
	clear(rs.index)
	rs.shift = uint(64 - bits.TrailingZeros(uint(size)))
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
			continue
		}
		n.next = Ref(len(movers))
		movers = append(movers, r)
		i := rs.indexSlot(n.lo, n.hi)
		for rs.index[i] != False {
			i = (i + 1) & (len(rs.index) - 1)
		}
		rs.index[i] = r
	}
	rs.vars[x], rs.deps = movers, deps
	// Rewrite dependents in place as deciders of y:
	// F = y ? (x?f11:f01) : (x?f10:f00).
	for _, d := range deps {
		g0 := m.mkSwap(x, d.f00, d.f10)
		g1 := m.mkSwap(x, d.f01, d.f11)
		n := &m.nodes[d.r]
		of0, of1 := n.lo, n.hi
		rs.oldDeps = append(rs.oldDeps, nodeUndo{d.r, of0, of1})
		n.v, n.lo, n.hi, n.next = y, g0, g1, Ref(len(rs.vars[y]))
		rs.vars[y] = append(rs.vars[y], d.r)
		rs.refcnt[g0]++
		rs.refcnt[g1]++
		m.deferDecRef(of0)
		m.deferDecRef(of1)
	}
	m.collectDead()
}

// indexSlot is the swap index slot a (lo, hi) pair's probe starts at.
func (rs *reorderState) indexSlot(lo, hi Ref) int {
	return int((uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9E3779B97F4A7C15 >> rs.shift)
}

// mkSwap interns (v, lo, hi), v the upper variable of the running swap,
// through the swap's index: sharing with movers and previously created
// nodes, slot reuse from the free list, variable list and refcount
// maintenance, a log entry and a budget poll. The swap's dependents are
// still counted, so the node cap sees the swap's starting size plus the
// nodes it has created, whatever the order of its dependents.
func (m *Manager) mkSwap(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	rs := m.rs
	i := rs.indexSlot(lo, hi)
	for r := rs.index[i]; r != False; r = rs.index[i] {
		if n := &m.nodes[r]; n.lo == lo && n.hi == hi {
			return r
		}
		i = (i + 1) & (len(rs.index) - 1)
	}
	r := m.newNode(v, lo, hi)
	rs.index[i] = r
	m.uniqueCount++
	rs.created = append(rs.created, r)
	if int(r) == len(rs.refcnt) {
		rs.refcnt = append(rs.refcnt, 0)
	}
	rs.refcnt[r] = 0
	rs.refcnt[lo]++
	rs.refcnt[hi]++
	m.nodes[r].next = Ref(len(rs.vars[v]))
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

// collectDead drains the death worklist: each dead node is logged,
// leaves its variable's list, releases its children (cascading), and
// frees its slot for reuse.
func (m *Manager) collectDead() {
	rs := m.rs
	for len(rs.dead) > 0 {
		r := rs.dead[len(rs.dead)-1]
		rs.dead = rs.dead[:len(rs.dead)-1]
		if rs.refcnt[r] != 0 {
			continue
		}
		n := &m.nodes[r]
		rs.killed = append(rs.killed, nodeUndo{r, n.lo, n.hi})
		m.unlist(r)
		m.uniqueCount--
		m.deferDecRef(n.lo)
		m.deferDecRef(n.hi)
		m.free = append(m.free, r)
	}
}

// unlist removes r from its variable's list, moving the list's last
// node into its place.
func (m *Manager) unlist(r Ref) {
	n := &m.nodes[r]
	list := m.rs.vars[n.v]
	last := list[len(list)-1]
	list[n.next] = last
	m.nodes[last].next = n.next
	m.rs.vars[n.v] = list[:len(list)-1]
}

// undoSwap reverses the last unreversed swap of levels l and l+1, which
// left y at l and x at l+1. Non-interacting variables only exchange
// levels back. Otherwise the swap's record is popped and the node cap
// checked where the reverse swap would check it; then the killed nodes
// return to their slots (the top of the free list) last death first,
// the dependents get their old variable and children back, and the
// created nodes are freed last first — popped slots back onto the free
// list, appended ones cut from storage — reversing every refcount
// change.
func (m *Manager) undoSwap(l int) {
	m.pollCancel()
	rs := m.rs
	y, x := m.varAtLevel[l], m.varAtLevel[l+1]
	if !rs.interacts(x, y) {
		m.swapVarMaps(l)
		return
	}
	rec := rs.log[len(rs.log)-1]
	killed, created := rs.killed[rec.killed:], rs.created[rec.created:]
	if len(killed) > 0 && m.budget != nil {
		if mx := m.budget.MaxBDDNodes(); mx > 0 && m.uniqueCount+len(killed) > mx {
			panic(buildInterrupt{m.budget.TripBDD()})
		}
	}
	m.swapVarMaps(l)
	m.free = m.free[:len(m.free)-len(killed)]
	for i := len(killed) - 1; i >= 0; i-- {
		k := killed[i]
		m.nodes[k.r] = node{v: y, lo: k.lo, hi: k.hi, next: Ref(len(rs.vars[y]))}
		rs.vars[y] = append(rs.vars[y], k.r)
		rs.refcnt[k.r] = 0
		rs.refcnt[k.lo]++
		rs.refcnt[k.hi]++
	}
	for _, d := range rs.oldDeps[rec.deps:] {
		n := &m.nodes[d.r]
		rs.refcnt[n.lo]--
		rs.refcnt[n.hi]--
		m.unlist(d.r)
		n.v, n.lo, n.hi, n.next = x, d.lo, d.hi, Ref(len(rs.vars[x]))
		rs.vars[x] = append(rs.vars[x], d.r)
		rs.refcnt[d.lo]++
		rs.refcnt[d.hi]++
	}
	for i := len(created) - 1; i >= 0; i-- {
		r := created[i]
		n := &m.nodes[r]
		rs.refcnt[n.lo]--
		rs.refcnt[n.hi]--
		m.unlist(r)
		if int(r) < rec.size {
			m.free = append(m.free, r)
		}
	}
	m.nodes = m.nodes[:rec.size]
	m.uniqueCount += len(killed) - len(created)
	rs.log = rs.log[:len(rs.log)-1]
	rs.oldDeps, rs.created, rs.killed = rs.oldDeps[:rec.deps], rs.created[:rec.created], rs.killed[:rec.killed]
}

// swapVarMaps exchanges the variable↔level maps for levels l and l+1.
func (m *Manager) swapVarMaps(l int) {
	x, y := m.varAtLevel[l], m.varAtLevel[l+1]
	m.varAtLevel[l], m.varAtLevel[l+1] = y, x
	m.levelOfVar[x], m.levelOfVar[y] = int32(l+1), int32(l)
}
