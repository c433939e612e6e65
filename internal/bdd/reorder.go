package bdd

import (
	"slices"
	"sort"
)

// In-place dynamic variable reordering — Rudell's sifting (ICCAD'93, the
// CUDD/BuDDy lineage) — on the open-addressed unique table.
//
// The reordering contract:
//
//   - Swaps and Reorder preserve the *slots* (Refs) of every node
//     reachable from a protected root. A swap of adjacent levels l/l+1
//     touches only the nodes at those two levels: nodes at level l not
//     depending on the level-l+1 variable keep their triple and move to
//     l+1; level-l+1 nodes move to l; level-l nodes that do depend on the
//     other variable (the dependents) are rewritten in place as deciders
//     of it (F = y ? (x?f11:f01) : (x?f10:f00)). External Refs into the
//     protected forest therefore stay valid across any number of swaps.
//   - The unique table is keyed by (variable, lo, hi), so the nodes that
//     only move keep their key and their table slot: a swap relabels
//     their level field and rehashes just the dependents it rewrites.
//   - Every Ref *not* reachable from a protected root is invalidated:
//     reorder-state setup garbage-collects unreachable interned nodes,
//     and their slots go to the manager's free list, which swap-created
//     nodes and, after the reorder, mk refill.
//   - Every decision — garbage-collection order, sift order, tie-breaks,
//     slot assignment, growth aborts, the auto-reorder trigger — is a
//     pure function of the table state, so a build+reorder sequence is
//     bit-identical across processes and worker counts, and dominod may
//     cache its results.
//
// The budget token is polled per swap (cancellation) and per created
// node (node cap + cancellation), so both land inside a reorder as the
// usual CUDD-style interrupt panic; the build boundary (or Reorder's own
// CatchInterrupt) converts it to an error and the manager is left
// unusable-but-not-corrupt, to be dropped. Inside a swap the cap
// is checked against the live count plus the dependents the swap holds
// out of the table, so where a reorder trips is a function of the
// forest and the order alone, like its sift decisions.

// reorderState is the ephemeral bookkeeping a reorder needs: reference
// counts, a per-level node index (swap cost proportional to the two
// levels' populations), and scratch space the swaps reuse. It is built
// on demand from the protected roots and dropped when a reorder ends or
// any ordinary mk interns a node the state doesn't know about.
type reorderState struct {
	// refcnt[r] = number of live parents of r plus one pin per protected
	// occurrence. Terminals accumulate counts but are never collected.
	refcnt []int32
	// pos[r] = index of r in levels[nodes[r].level].
	pos []int32
	// levels[l] lists the live nodes at level l in deterministic order.
	levels [][]Ref
	// dead is the deferred death worklist shared across swaps.
	dead []Ref
	// deps is the swaps' shared dependent scratch list.
	deps []depNode
}

// depNode is a dependent of a swap: a level-l node with a level-l+1
// child, and the four grandchildren (x = the level-l variable, y = the
// level-l+1 one) it is rewritten from: f_xy for x, y in {0, 1}.
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
		if pop := len(m.rs.levels[m.levelOfVar[v]]); pop > 0 {
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

// buildReorderState marks the protected forest, builds the per-level
// index and reference counts, garbage-collects unreachable interned
// nodes (their slots join the free list), and drops the operation
// caches (their entries may name collected slots).
func (m *Manager) buildReorderState() {
	numVars := m.NumVars()
	rs := &reorderState{
		refcnt: make([]int32, len(m.nodes)),
		pos:    make([]int32, len(m.nodes)),
		levels: make([][]Ref, numVars),
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
	// root leave the table; their slots join the ones still free from
	// earlier collections, sorted ascending so slot reuse is independent
	// of hash-table layout.
	free := m.free
	for _, r := range m.unique {
		if r != False && !seen[r] {
			free = append(free, r)
		}
	}
	for _, r := range free[len(m.free):] {
		m.uniqueDelete(r)
	}
	slices.Sort(free)
	m.free = free
	for r := 2; r < len(m.nodes); r++ {
		if !seen[r] {
			continue
		}
		lvl := m.nodes[r].level
		rs.pos[r] = int32(len(rs.levels[lvl]))
		rs.levels[lvl] = append(rs.levels[lvl], Ref(r))
	}
	// The lossy cache may hold entries naming collected slots; it is
	// advisory for results but must not resolve to reused slots.
	for i := range m.binop {
		m.binop[i] = binopEntry{}
	}
	m.rs = rs
}

// swapLevels is the in-place adjacent swap. Phase order matters for
// canonicity: classification snapshots the four grandchildren while
// child levels are still old; dependents leave the unique table while
// their triples (under the old variable maps) still match their entries;
// level-l+1 nodes relabel to l and movers to l+1 *before* dependents
// intern their new children, so swap-created deciders share with
// movers; deaths cascade last. Movers and old level-l+1 nodes keep their
// (variable, lo, hi) key, so they never leave their table slots.
func (m *Manager) swapLevels(l int) {
	if m.budget != nil {
		if err := m.budget.Err(); err != nil {
			panic(buildInterrupt{err})
		}
	}
	rs := m.rs
	lx, ly := int32(l), int32(l+1)
	levL, levY := rs.levels[l], rs.levels[l+1]
	// Classify level-l nodes: movers keep their children and are
	// compacted in place into levL's front; dependents snapshot the
	// grandchildren quadruple before any level changes.
	movers, deps := levL[:0], rs.deps[:0]
	for _, r := range levL {
		n := &m.nodes[r]
		d := depNode{r: r, f00: n.lo, f01: n.lo, f10: n.hi, f11: n.hi}
		isDep := false
		if c := &m.nodes[n.lo]; c.level == ly {
			d.f00, d.f01 = c.lo, c.hi
			isDep = true
		}
		if c := &m.nodes[n.hi]; c.level == ly {
			d.f10, d.f11 = c.lo, c.hi
			isDep = true
		}
		if isDep {
			deps = append(deps, d)
		} else {
			movers = append(movers, r)
		}
	}
	rs.deps = deps
	for _, d := range deps {
		m.uniqueDelete(d.r)
	}
	m.swapVarMaps(l)
	// Relabel: old level-l+1 nodes decide their variable at level l now,
	// movers theirs at l+1. Slots, children and keys are untouched, so
	// external Refs keep their meaning and the table needs no update.
	for _, r := range levY {
		m.nodes[r].level = lx
	}
	for _, r := range movers {
		m.nodes[r].level = ly
	}
	// Level l lists the dependents, then the old level-l+1 nodes.
	newL := slices.Grow(levY, len(deps))[:len(deps)+len(levY)]
	copy(newL[len(deps):], newL[:len(levY)])
	for i, d := range deps {
		newL[i] = d.r
	}
	rs.levels[l], rs.levels[l+1] = newL, movers
	for i, r := range newL {
		rs.pos[r] = int32(i)
	}
	for i, r := range movers {
		rs.pos[r] = int32(i)
	}
	// Rewrite dependents in place as deciders of the other variable:
	// F = y ? (x?f11:f01) : (x?f10:f00). Distinct canonical functions
	// produce distinct triples, so the in-place reinsertions never
	// collide; mkSwap interns the two new cofactors with full sharing.
	for i, d := range deps {
		g0 := m.mkSwap(ly, d.f00, d.f10, len(deps)-i)
		g1 := m.mkSwap(ly, d.f01, d.f11, len(deps)-i)
		n := &m.nodes[d.r]
		of0, of1 := n.lo, n.hi
		n.level, n.lo, n.hi = lx, g0, g1
		m.uniqueInsert(d.r)
		rs.refcnt[g0]++
		rs.refcnt[g1]++
		m.deferDecRef(of0)
		m.deferDecRef(of1)
	}
	m.collectDead()
}

// mkSwap interns (level, lo, hi) during a swap: unique-table sharing
// with movers and previously created nodes, slot reuse from the free
// list, level index and refcount maintenance, and a budget poll. It
// bypasses the operation caches entirely. unkeyed is the number of
// dependents the swap holds out of the unique table; the node cap counts
// them as live, so it sees the swap's starting size plus the nodes it
// has created, whatever the order of its dependents.
func (m *Manager) mkSwap(level int32, lo, hi Ref, unkeyed int) Ref {
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
	rs := m.rs
	r := m.newNode(level, lo, hi)
	if int(r) == len(rs.refcnt) {
		rs.refcnt = append(rs.refcnt, 0)
		rs.pos = append(rs.pos, 0)
	}
	m.uniqueInsert(r)
	rs.refcnt[r] = 0
	rs.refcnt[lo]++
	rs.refcnt[hi]++
	rs.pos[r] = int32(len(rs.levels[level]))
	rs.levels[level] = append(rs.levels[level], r)
	if m.budget != nil {
		m.pollBudget(m.uniqueCount + unkeyed)
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
// unique table and its level list, releases its children (cascading),
// and frees its slot for reuse.
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
		list := rs.levels[n.level]
		p := rs.pos[r]
		last := list[len(list)-1]
		list[p] = last
		rs.pos[last] = p
		rs.levels[n.level] = list[:len(list)-1]
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

// uniqueInsert places an already-built node into the unique table (no
// lookup — the caller guarantees the triple is absent), growing at 3/4
// load like mk.
func (m *Manager) uniqueInsert(r Ref) {
	if 4*(m.uniqueCount+1) > 3*len(m.unique) {
		m.growUnique()
	}
	n := &m.nodes[r]
	mask := uint64(len(m.unique) - 1)
	idx := m.home(n.level, n.lo, n.hi)
	for m.unique[idx] != False {
		idx = (idx + 1) & mask
	}
	m.unique[idx] = r
	m.uniqueCount++
}

// uniqueDelete removes a node from the open-addressed table with
// backward-shift rehoming, preserving every other entry's probe chain.
// The node's key must still match its entry: delete before rewriting
// its children or swapping its variable's level.
func (m *Manager) uniqueDelete(r Ref) {
	n := &m.nodes[r]
	mask := uint64(len(m.unique) - 1)
	idx := m.home(n.level, n.lo, n.hi)
	for m.unique[idx] != r {
		if m.unique[idx] == False {
			return // not interned (already deleted)
		}
		idx = (idx + 1) & mask
	}
	m.unique[idx] = False
	m.uniqueCount--
	// Backward shift: walk the cluster, pulling entries whose home slot
	// lies at or cyclically before the hole back into it.
	hole := idx
	j := idx
	for {
		j = (j + 1) & mask
		s := m.unique[j]
		if s == False {
			return
		}
		sn := &m.nodes[s]
		home := m.home(sn.level, sn.lo, sn.hi)
		if ((j - home) & mask) >= ((j - hole) & mask) {
			m.unique[hole] = s
			m.unique[j] = False
			hole = j
		}
	}
}
