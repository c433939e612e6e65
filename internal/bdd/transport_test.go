package bdd

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/budget"
)

// siftVarBySwaps is siftVar carrying the variable back with real swaps
// instead of undos: the up pass re-crosses the down pass, and the final
// move re-crosses the up pass, by swapping. It is the oracle undo
// transport is checked against. A non-nil carried receives the peak live count of
// every transport swap — the count it started from plus the nodes it
// created — and the peak of the swap it reverses.
func (m *Manager) siftVarBySwaps(v int, carried func(peak, reversed int)) {
	var peaks []int // peaks of the swaps transport may reverse, last on top
	swap := func(l int) int {
		live, made := m.uniqueCount, len(m.rs.created)
		m.swapLevels(l)
		return live + len(m.rs.created) - made
	}
	carry := func(l int) {
		p := swap(l)
		if carried != nil {
			carried(p, peaks[len(peaks)-1])
		}
		peaks = peaks[:len(peaks)-1]
	}
	start := m.uniqueCount
	limit := start + start/5
	n := m.NumVars()
	from := int(m.levelOfVar[v])
	pos, bestSize, bestPos := from, start, from
	for pos < n-1 {
		peaks = append(peaks, swap(pos))
		pos++
		size := m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for pos > 0 {
		if pos > from {
			carry(pos - 1)
		} else {
			peaks = append(peaks, swap(pos-1))
		}
		pos--
		size := m.uniqueCount
		if size < bestSize {
			bestSize, bestPos = size, pos
		}
		if size > limit {
			break
		}
	}
	for ; pos < bestPos; pos++ {
		if pos < from {
			carry(pos)
		} else {
			m.swapLevels(pos)
		}
	}
	for ; pos > bestPos; pos-- {
		m.swapLevels(pos - 1)
	}
	rs := m.rs
	rs.log, rs.oldDeps, rs.created, rs.killed = rs.log[:0], rs.oldDeps[:0], rs.created[:0], rs.killed[:0]
}

// reorderWith is reorderNow with sift in place of siftVar, under
// Reorder's CatchInterrupt. It reports the order after each completed
// sift.
func (m *Manager) reorderWith(sift func(v int)) (orders [][]int, err error) {
	err = CatchInterrupt(func() {
		m.buildReorderState()
		for _, v := range m.siftOrder() {
			sift(v)
			orders = append(orders, m.Order())
		}
		m.endReorder()
		m.reorders++
	})
	return orders, err
}

// transportPeaks runs the swap-transport oracle's reorder on m without
// a cap and returns the distinct peaks of its transport swaps, sorted,
// and how many transport swaps peaked anywhere but at the peak of the
// swap they reverse.
func transportPeaks(m *Manager) (peaks []int, off int) {
	m.reorderWith(func(v int) {
		m.siftVarBySwaps(v, func(p, reversed int) {
			peaks = append(peaks, p)
			if p != reversed {
				off++
			}
		})
	})
	slices.Sort(peaks)
	return slices.Compact(peaks), off
}

// checkTransportParity reorders one manager with undo transport and
// another, built identically, with the swap-transport oracle, and
// requires the same order after each sift, the same trip or the same
// completion, and on completion the same live count and a clean unique
// table.
func checkTransportParity(t *testing.T, undo, swaps *Manager, nodeCap int) {
	t.Helper()
	want, wantErr := swaps.reorderWith(func(v int) { swaps.siftVarBySwaps(v, nil) })
	got, err := undo.reorderWith(undo.siftVar)
	if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, budget.ErrBDDNodes)) {
		t.Fatalf("cap %d: undo transport err = %v, swap transport err = %v", nodeCap, err, wantErr)
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("cap %d: orders after each sift differ:\nundo  %v\nswaps %v", nodeCap, got, want)
	}
	if err == nil {
		if undo.LiveNodes() != swaps.LiveNodes() {
			t.Fatalf("cap %d: LiveNodes %d with undo transport, %d with swaps", nodeCap, undo.LiveNodes(), swaps.LiveNodes())
		}
		checkUniqueTable(t, undo)
	}
}

// TestUndoTransportMatchesSwaps: on random networks with disjoint blocks
// added, a reorder that carries each sifted variable back by undoing
// logged swaps agrees with the oracle that swaps it back, under no cap
// and under a cap at every transport peak the oracle records and one
// below it: the same order after each sift, the same trip or completion,
// the same live count. Reorder itself agrees with both. Every transport
// swap peaks where the swap it reverses did, so a transport can trip
// only under a cap below the live count, which a swap that creates no
// node never checks; some of these caps are, and there an undo that
// skipped its cap check would complete where the oracle trips.
func TestUndoTransportMatchesSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trips, caps := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := randomNetwork(rng, 3+rng.Intn(6), 10+rng.Intn(40))
		addBlocks(n, rng, rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(6))
		order := rng.Perm(n.NumInputs())
		build := func(nodeCap int) *Manager {
			nb, err := BuildNetwork(NewWithOrder(n.NumInputs(), order), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if nodeCap > 0 {
				nb.Manager.SetBudget(budget.New(nodeCap, 0))
			}
			return nb.Manager
		}
		checkTransportParity(t, build(0), build(0), 0)
		peaks, off := transportPeaks(build(0))
		if off != 0 {
			t.Fatalf("trial %d: %d transport swaps peaked off the peak of the swap they reverse", trial, off)
		}
		for _, p := range peaks {
			for _, c := range []int{p, p - 1} {
				caps++
				checkTransportParity(t, build(c), build(c), c)
				m, want := build(c), build(c)
				err := m.Reorder()
				_, wantErr := want.reorderWith(func(v int) { want.siftVarBySwaps(v, nil) })
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("trial %d, cap %d: Reorder err = %v, swap transport err = %v", trial, c, err, wantErr)
				}
				if err != nil {
					trips++
					continue
				}
				if !slices.Equal(m.Order(), want.Order()) || m.LiveNodes() != want.LiveNodes() {
					t.Fatalf("trial %d, cap %d: Reorder left order %v with %d live, swap transport %v with %d",
						trial, c, m.Order(), m.LiveNodes(), want.Order(), want.LiveNodes())
				}
			}
		}
	}
	t.Logf("%d caps swept, %d tripped", caps, trips)
	if trips == 0 || trips == caps {
		t.Fatalf("%d of %d caps tripped: the sweep must see both outcomes", trips, caps)
	}
}
