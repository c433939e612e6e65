package sgraph

import (
	"math/rand"
	"testing"
)

// figure9 builds the 5-vertex strongly connected s-graph of the paper's
// Figure 9: A, B, E have identical fanins {C, D} and fanouts {C, D};
// C and D have fanins {A,B,E} and fanouts {A,B,E}.
func figure9() *Graph {
	g := New(5, []string{"A", "B", "C", "D", "E"})
	const (
		A = 0
		B = 1
		C = 2
		D = 3
		E = 4
	)
	for _, u := range []int{A, B, E} {
		for _, v := range []int{C, D} {
			g.AddEdge(u, v)
			g.AddEdge(v, u)
		}
	}
	return g
}

func TestFigure9ClassicalTransformsStuck(t *testing.T) {
	g := figure9()
	var sol Solution
	w := g.Clone()
	w.Reduce(&sol)
	if len(sol.Vertices) != 0 || w.NumAlive() != 5 {
		t.Fatalf("classical reductions should not reduce Figure 9: took %v, %d alive",
			sol.Vertices, w.NumAlive())
	}
}

func TestFigure9Symmetrize(t *testing.T) {
	g := figure9()
	merges := g.Symmetrize()
	if merges != 3 {
		t.Errorf("merges = %d, want 3 (A,B,E -> ABE; C,D -> CD)", merges)
	}
	if g.NumAlive() != 2 {
		t.Fatalf("alive after symmetrization = %d, want 2", g.NumAlive())
	}
	// Find the two supervertices and check weights 3 and 2.
	var weights []int
	for v := 0; v < 5; v++ {
		if g.alive[v] {
			weights = append(weights, g.Weight(v))
		}
	}
	if len(weights) != 2 || weights[0]+weights[1] != 5 {
		t.Fatalf("supervertex weights = %v", weights)
	}
	if !(weights[0] == 3 && weights[1] == 2 || weights[0] == 2 && weights[1] == 3) {
		t.Errorf("supervertex weights = %v, want {3,2}", weights)
	}
}

func TestFigure9MFVSPicksCD(t *testing.T) {
	g := figure9()
	sol := MFVS(g, DefaultOptions())
	// The optimum cuts C and D (weight 2), not A, B, E (weight 3).
	if sol.Weight != 2 {
		t.Fatalf("MFVS weight = %d, want 2 (cut {C,D})", sol.Weight)
	}
	want := map[int]bool{2: true, 3: true}
	for _, v := range sol.Vertices {
		if !want[v] {
			t.Errorf("unexpected FVS vertex %s", g.Name(v))
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Errorf("FVS missing vertices: %v", want)
	}
	if !g.IsFeedbackSet(sol.Vertices) {
		t.Error("returned set is not a feedback set")
	}
}

func TestFigure9WithoutSymmetry(t *testing.T) {
	// The classical baseline (no symmetry transform) must still return a
	// valid feedback set; the enhanced version should never be worse.
	g := figure9()
	base := MFVS(g, Options{Symmetry: false, ExactLimit: 0})
	enh := MFVS(g, DefaultOptions())
	if !g.IsFeedbackSet(base.Vertices) {
		t.Error("baseline not a feedback set")
	}
	if enh.Weight > base.Weight {
		t.Errorf("enhanced (%d) worse than baseline (%d)", enh.Weight, base.Weight)
	}
}

func TestFigure8SelfLoop(t *testing.T) {
	// Figure 8(b): a self-loop vertex is taken into the FVS.
	g := New(3, []string{"X", "U", "V"})
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	g.AddEdge(0, 2)
	var sol Solution
	g.Reduce(&sol)
	if len(sol.Vertices) != 1 || sol.Vertices[0] != 0 {
		t.Errorf("self-loop reduction took %v, want [X]", sol.Vertices)
	}
	if g.NumAlive() != 0 {
		t.Errorf("residue after reduction: %d alive (U, V are then source/sink)", g.NumAlive())
	}
}

func TestFigure8SourceSink(t *testing.T) {
	// Figure 8(a)/(c): sources and sinks can be ignored.
	g := New(3, []string{"X", "Y", "Z"})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var sol Solution
	g.Reduce(&sol)
	if len(sol.Vertices) != 0 || g.NumAlive() != 0 {
		t.Errorf("acyclic chain should vanish: sol %v, %d alive", sol.Vertices, g.NumAlive())
	}
}

func TestFigure8Bypass(t *testing.T) {
	// A vertex with a single predecessor is bypassed; the cycle collapses
	// onto the neighbor.
	g := New(2, []string{"X", "Y"})
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	var sol Solution
	g.Reduce(&sol)
	if len(sol.Vertices) != 1 {
		t.Fatalf("2-cycle must cost exactly one vertex, got %v", sol.Vertices)
	}
}

func TestMFVSValidityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(15)
		g := New(n, nil)
		edges := 1 + rng.Intn(3*n)
		for e := 0; e < edges; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for _, opts := range []Options{DefaultOptions(), {Symmetry: false, ExactLimit: 0}, {Symmetry: true, ExactLimit: 0}} {
			sol := MFVS(g, opts)
			if !g.IsFeedbackSet(sol.Vertices) {
				t.Fatalf("trial %d opts %+v: not a feedback set: %v", trial, opts, sol.Vertices)
			}
			if sol.Weight != len(sol.Vertices) {
				t.Fatalf("trial %d: weight %d != |set| %d for unit weights", trial, sol.Weight, len(sol.Vertices))
			}
		}
	}
}

func TestMFVSExactOptimalOnKnownGraphs(t *testing.T) {
	// Complete digraph K4 (all ordered pairs): MFVS must remove all but
	// one vertex.
	g := New(4, nil)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	sol := MFVS(g, DefaultOptions())
	if sol.Weight != 3 {
		t.Errorf("K4 MFVS weight = %d, want 3", sol.Weight)
	}
	// Two disjoint 3-cycles: weight 2.
	g2 := New(6, nil)
	g2.AddEdge(0, 1)
	g2.AddEdge(1, 2)
	g2.AddEdge(2, 0)
	g2.AddEdge(3, 4)
	g2.AddEdge(4, 5)
	g2.AddEdge(5, 3)
	sol2 := MFVS(g2, DefaultOptions())
	if sol2.Weight != 2 {
		t.Errorf("two 3-cycles MFVS weight = %d, want 2", sol2.Weight)
	}
}

func TestEnhancedNeverWorseThanBaselineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(10)
		g := New(n, nil)
		// Bias toward symmetric structure: duplicate some vertices'
		// connectivity, as domino duplication does.
		for e := 0; e < 2*n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for v := 1; v < n; v += 3 {
			// Make v a twin of v-1.
			for u := 0; u < n; u++ {
				if g.HasEdge(v-1, u) && u != v {
					g.AddEdge(v, u)
				}
				if g.HasEdge(u, v-1) && u != v {
					g.AddEdge(u, v)
				}
			}
		}
		base := MFVS(g, Options{Symmetry: false, ExactLimit: 0})
		enh := MFVS(g, Options{Symmetry: true, ExactLimit: 0})
		if !g.IsFeedbackSet(enh.Vertices) || !g.IsFeedbackSet(base.Vertices) {
			t.Fatalf("trial %d: invalid feedback set", trial)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := figure9()
	c := g.Clone()
	var sol Solution
	c.Reduce(&sol)
	c.Symmetrize()
	if g.NumAlive() != 5 {
		t.Error("mutating the clone changed the original")
	}
}

func BenchmarkMFVSEnhanced(b *testing.B) {
	rng := rand.New(rand.NewSource(107))
	g := New(60, nil)
	for e := 0; e < 200; e++ {
		g.AddEdge(rng.Intn(60), rng.Intn(60))
	}
	for v := 1; v < 60; v += 2 {
		for u := 0; u < 60; u++ {
			if g.HasEdge(v-1, u) && u != v {
				g.AddEdge(v, u)
			}
			if g.HasEdge(u, v-1) && u != v {
				g.AddEdge(u, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MFVS(g, Options{Symmetry: true, ExactLimit: 0})
	}
}

func BenchmarkMFVSBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(107))
	g := New(60, nil)
	for e := 0; e < 200; e++ {
		g.AddEdge(rng.Intn(60), rng.Intn(60))
	}
	for v := 1; v < 60; v += 2 {
		for u := 0; u < 60; u++ {
			if g.HasEdge(v-1, u) && u != v {
				g.AddEdge(v, u)
			}
			if g.HasEdge(u, v-1) && u != v {
				g.AddEdge(u, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MFVS(g, Options{Symmetry: false, ExactLimit: 0})
	}
}

func TestSymmetrizeWithSelfLoops(t *testing.T) {
	// Vertices with identical neighborhoods plus self-loops must merge
	// without losing the self-loop.
	g := New(3, []string{"A", "B", "C"})
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	merges := g.Symmetrize()
	if merges != 1 {
		t.Fatalf("merges = %d, want 1 (A,B)", merges)
	}
	// The merged supervertex keeps a self-loop, so MFVS must take it.
	sol := MFVS(g, DefaultOptions())
	if !g.IsFeedbackSet(sol.Vertices) {
		t.Error("not a feedback set after self-loop merge")
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	g := New(0, nil)
	sol := MFVS(g, DefaultOptions())
	if len(sol.Vertices) != 0 {
		t.Error("empty graph has nonempty MFVS")
	}
	g1 := New(1, nil)
	if sol := MFVS(g1, DefaultOptions()); len(sol.Vertices) != 0 {
		t.Error("edgeless vertex in MFVS")
	}
	g1.AddEdge(0, 0)
	if sol := MFVS(g1, DefaultOptions()); sol.Weight != 1 {
		t.Error("self-loop singleton must be cut")
	}
}
