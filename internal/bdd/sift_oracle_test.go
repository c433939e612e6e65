package bdd

// CountUnderOrder reports the shared non-terminal node count of the given
// roots when rebuilt under a different variable order. It is the
// comparison primitive behind the rebuild-based Sift oracle.
func CountUnderOrder(src *Manager, roots []Ref, order []int) int {
	dst := NewWithOrder(src.NumVars(), order)
	newRoots := make([]Ref, len(roots))
	for i, r := range roots {
		newRoots[i] = Transfer(src, r, dst, nil)
	}
	return dst.NodeCount(newRoots...)
}

// Sift performs a rebuild-based variant of Rudell's sifting: each
// variable in turn is tried at every position (keeping the relative order
// of the others) and left at the position minimizing the shared node
// count of roots. Returns the best order found and its node count.
//
// Manager.Reorder is the in-place production path; this rebuild-per-
// candidate variant visits every (variable, position) pair without
// growth aborts, which makes it the correctness oracle the in-place
// reorderer is property-tested against. A position index replaces a
// per-variable linear rescan, and candidate orders are produced by
// in-place rotation into one scratch slice instead of a fresh copy per
// candidate.
func Sift(src *Manager, roots []Ref) ([]int, int) {
	order := src.Order()
	best := CountUnderOrder(src, roots, order)
	n := len(order)
	// posOf[v] = current position of variable v in order.
	posOf := make([]int, n)
	for i, v := range order {
		posOf[v] = i
	}
	cand := make([]int, n)
	for v := 0; v < n; v++ {
		pos := posOf[v]
		bestPos, bestCount := pos, best
		for p := 0; p < n; p++ {
			if p == pos {
				continue
			}
			copy(cand, order)
			moveVar(cand, pos, p)
			c := CountUnderOrder(src, roots, cand)
			if c < bestCount {
				bestCount, bestPos = c, p
			}
		}
		if bestPos != pos {
			moveVar(order, pos, bestPos)
			lo, hi := pos, bestPos
			if lo > hi {
				lo, hi = hi, lo
			}
			for i := lo; i <= hi; i++ {
				posOf[order[i]] = i
			}
			best = bestCount
		}
	}
	return order, best
}

// moveVar rotates order in place so the element at position from lands
// at position to, shifting the elements between them by one.
func moveVar(order []int, from, to int) {
	v := order[from]
	if from < to {
		copy(order[from:], order[from+1:to+1])
	} else {
		copy(order[to+1:], order[to:from])
	}
	order[to] = v
}

// Transfer rebuilds the function rooted at f in a destination manager with
// a possibly different variable order. varMap maps source variable index
// to destination variable index (nil for identity).
func Transfer(src *Manager, f Ref, dst *Manager, varMap []int) Ref {
	if varMap == nil {
		varMap = make([]int, src.NumVars())
		for i := range varMap {
			varMap[i] = i
		}
	}
	memo := make([]Ref, len(src.nodes))
	seen := make([]bool, len(src.nodes))
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		if r == False {
			return False
		}
		if r == True {
			return True
		}
		if seen[r] {
			return memo[r]
		}
		n := &src.nodes[r]
		v := varMap[n.v]
		lo := rec(n.lo)
		hi := rec(n.hi)
		res := dst.ITE(dst.Var(v), hi, lo)
		memo[r] = res
		seen[r] = true
		return res
	}
	return rec(f)
}
