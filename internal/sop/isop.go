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
	v, L0, L1, U0, U1 := topCofactors(m, L, U)

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

// topCofactors returns the top variable v of L and U in the manager's
// order and their cofactors with respect to it. In a reduced ordered
// BDD a root decides the top variable of its support, so v is the
// variable of the root at the smaller level, and a root deciding v
// cofactors into its children while the other root does not depend on
// v. Both roots are non-terminal: the callers' checks return on
// L == False and U == True, and L ≤ U.
func topCofactors(m *bdd.Manager, L, U bdd.Ref) (v int, L0, L1, U0, U1 bdd.Ref) {
	v, L0, L1 = m.Top(L)
	vu, U0, U1 := m.Top(U)
	switch lu, ll := m.LevelOf(vu), m.LevelOf(v); {
	case lu < ll:
		v, L0, L1 = vu, L, L
	case lu > ll:
		U0, U1 = U, U
	}
	return v, L0, L1, U0, U1
}
