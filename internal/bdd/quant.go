package bdd

// Exists returns ∃v. f = f|v=0 ∨ f|v=1.
func (m *Manager) Exists(f Ref, v int) Ref {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// Forall returns ∀v. f = f|v=0 ∧ f|v=1.
func (m *Manager) Forall(f Ref, v int) Ref {
	return m.And(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// ExistsMany quantifies a set of variables existentially.
func (m *Manager) ExistsMany(f Ref, vars []int) Ref {
	for _, v := range vars {
		f = m.Exists(f, v)
	}
	return f
}

// Compose substitutes function g for variable v in f:
// f[v := g] = ITE(g, f|v=1, f|v=0).
func (m *Manager) Compose(f Ref, v int, g Ref) Ref {
	return m.ITE(g, m.Restrict(f, v, true), m.Restrict(f, v, false))
}

// Implies reports whether f ≤ g (f implies g) — canonical check
// f ∧ ¬g = 0.
func (m *Manager) Implies(f, g Ref) bool {
	return m.And(f, m.Not(g)) == False
}

// AnySat returns a satisfying assignment of f (nil when f is False). The
// assignment fixes every variable; variables outside the support default
// to false.
func (m *Manager) AnySat(f Ref) []bool {
	if f == False {
		return nil
	}
	assignment := make([]bool, m.NumVars())
	r := f
	for r != True {
		n := &m.nodes[r]
		v := int(m.varAtLevel[n.level])
		if n.hi != False {
			assignment[v] = true
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return assignment
}
