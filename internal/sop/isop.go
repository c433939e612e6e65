package sop

import (
	"repro/internal/bdd"
	"repro/internal/budget"
)

// FromBDD extracts an irredundant sum-of-products cover for the function
// f using the Minato-Morreale ISOP algorithm. Variables of the returned
// cover are the manager's variable indexes 0..NumVars-1. Every cube of
// the cover is a prime implicant of f and no cube is covered by the
// union of the others, so cube merging and redundancy removal cannot
// change it.
//
// tok (nil = never cancelled) is polled once per recursive call: a call
// answered from the manager's operation caches creates no nodes, so it
// never reaches the manager's own insert-time poll. A cancellation, or
// a node-budget trip of the manager's token, comes back as the error.
func FromBDD(m *bdd.Manager, f bdd.Ref, tok *budget.T) (*Cover, error) {
	cover := NewCover(m.NumVars())
	err := bdd.CatchInterrupt(func() {
		isop(m, f, f, NewCube(m.NumVars()), cover, tok)
	})
	if err != nil {
		return nil, err
	}
	return cover, nil
}

// isop computes an SOP g with L ≤ g ≤ U, accumulating cubes (prefixed by
// the partial cube built so far) into cover, and returns the BDD of g.
func isop(m *bdd.Manager, L, U bdd.Ref, prefix Cube, cover *Cover, tok *budget.T) bdd.Ref {
	if err := tok.Err(); err != nil {
		bdd.Interrupt(err)
	}
	if L == bdd.False {
		return bdd.False
	}
	if U == bdd.True {
		cover.Add(prefix.Clone())
		return bdd.True
	}
	// Top variable of L and U in the manager's order.
	v := topSharedVar(m, L, U)
	L0 := m.Restrict(L, v, false)
	L1 := m.Restrict(L, v, true)
	U0 := m.Restrict(U, v, false)
	U1 := m.Restrict(U, v, true)

	// Cubes that must contain the negative literal of v: the part of L0
	// not coverable under U1.
	g0 := isop(m, m.And(L0, m.Not(U1)), U0, prefix.WithLiteral(v, Neg), cover, tok)
	// Cubes that must contain the positive literal of v.
	g1 := isop(m, m.And(L1, m.Not(U0)), U1, prefix.WithLiteral(v, Pos), cover, tok)
	// Remaining onset, coverable without mentioning v.
	Lrem := m.Or(m.And(L0, m.Not(g0)), m.And(L1, m.Not(g1)))
	gd := isop(m, Lrem, m.And(U0, U1), prefix, cover, tok)

	x := m.Var(v)
	nx := m.NVar(v)
	return m.Or(m.Or(m.And(nx, g0), m.And(x, g1)), gd)
}

// topSharedVar returns the variable with the smallest level among the
// supports of L and U. Both are non-terminal in at least one argument by
// the callers' checks.
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
	if best < 0 {
		panic("sop: topSharedVar on terminals")
	}
	return best
}
