// Package sgraph implements the s-graph machinery the paper uses to
// partition sequential domino circuits for power estimation (Section
// 4.2.1): a directed graph of structural dependencies among flip-flops,
// the classical minimum-feedback-vertex-set (MFVS) reductions of
// Chakradhar et al. [2] (Figure 8), and the paper's fourth,
// symmetry-based transformation that merges flip-flops with identical
// fanins and fanouts into weighted supervertices (Figure 9) — a pattern
// domino phase duplication makes common.
package sgraph

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// Graph is a mutable directed graph over weighted supervertices. Vertex
// identity is the index into the vertex table; dead vertices stay in the
// table with alive=false. Wherever the order of a neighbor set can reach
// a result, the set is walked in ascending vertex order, so every
// result — the MFVS cut above all — is a pure function of the graph.
type Graph struct {
	names   []string
	weight  []int
	members [][]int // original vertex indexes merged into this vertex
	out     []map[int]bool
	in      []map[int]bool
	alive   []bool
}

// New creates a graph with n vertices named by names (nil for v<i>
// defaults), each of weight 1.
func New(n int, names []string) *Graph {
	g := &Graph{
		names:   make([]string, n),
		weight:  make([]int, n),
		members: make([][]int, n),
		out:     make([]map[int]bool, n),
		in:      make([]map[int]bool, n),
		alive:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		if names != nil && i < len(names) && names[i] != "" {
			g.names[i] = names[i]
		} else {
			g.names[i] = fmt.Sprintf("v%d", i)
		}
		g.weight[i] = 1
		g.members[i] = []int{i}
		g.out[i] = make(map[int]bool)
		g.in[i] = make(map[int]bool)
		g.alive[i] = true
	}
	return g
}

// AddEdge inserts the directed edge u -> v (idempotent).
func (g *Graph) AddEdge(u, v int) {
	if !g.alive[u] || !g.alive[v] {
		panic("sgraph: edge on dead vertex")
	}
	g.out[u][v] = true
	g.in[v][u] = true
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names:   append([]string(nil), g.names...),
		weight:  append([]int(nil), g.weight...),
		members: make([][]int, len(g.members)),
		out:     make([]map[int]bool, len(g.out)),
		in:      make([]map[int]bool, len(g.in)),
		alive:   append([]bool(nil), g.alive...),
	}
	for i := range g.members {
		c.members[i] = append([]int(nil), g.members[i]...)
		c.out[i] = maps.Clone(g.out[i])
		c.in[i] = maps.Clone(g.in[i])
	}
	return c
}

// NumAlive returns the number of live vertices.
func (g *Graph) NumAlive() int {
	n := 0
	for _, a := range g.alive {
		if a {
			n++
		}
	}
	return n
}

// Name returns the display name of vertex v.
func (g *Graph) Name(v int) string { return g.names[v] }

// Weight returns the supervertex weight of v.
func (g *Graph) Weight(v int) int { return g.weight[v] }

// HasEdge reports whether the edge u -> v exists.
func (g *Graph) HasEdge(u, v int) bool { return g.alive[u] && g.alive[v] && g.out[u][v] }

func (g *Graph) remove(v int) {
	//dominolint:nondet-ok deletions from distinct sets commute
	for u := range g.in[v] {
		delete(g.out[u], v)
	}
	//dominolint:nondet-ok deletions from distinct sets commute
	for w := range g.out[v] {
		delete(g.in[w], v)
	}
	g.in[v] = make(map[int]bool)
	g.out[v] = make(map[int]bool)
	g.alive[v] = false
}

// Solution is an MFVS result in terms of the graph's *original* vertices.
type Solution struct {
	// Vertices lists original vertex indexes in the feedback set.
	Vertices []int
	// Weight is the total weight removed (= len(Vertices) for unit
	// weights).
	Weight int
}

func (g *Graph) take(v int, sol *Solution) {
	sol.Vertices = append(sol.Vertices, g.members[v]...)
	sol.Weight += g.weight[v]
	g.remove(v)
}

// Reduce applies the three classical transformations of Figure 8
// exhaustively:
//
//	(a) a source or sink vertex can never lie on a cycle — drop it;
//	(b) a vertex with a self-loop must be in every FVS — take it;
//	(c) a vertex with a single predecessor (or single successor) can be
//	    bypassed, since any cycle through it also passes the neighbor.
//
// Bypassing is the weighted-safe variant: v is contracted into its sole
// neighbor u only when weight(u) <= weight(v), which preserves
// optimality for weighted supervertices. Taken vertices accumulate into
// sol.
func (g *Graph) Reduce(sol *Solution) {
	changed := true
	for changed {
		changed = false
		for v := range g.alive {
			if !g.alive[v] {
				continue
			}
			switch {
			case g.out[v][v]:
				g.take(v, sol)
				changed = true
			case len(g.in[v]) == 0 || len(g.out[v]) == 0:
				g.remove(v)
				changed = true
			case len(g.in[v]) == 1:
				u := sortedKeys(g.in[v])[0]
				if g.weight[u] <= g.weight[v] {
					g.bypass(v)
					changed = true
				}
			case len(g.out[v]) == 1:
				u := sortedKeys(g.out[v])[0]
				if g.weight[u] <= g.weight[v] {
					g.bypass(v)
					changed = true
				}
			}
		}
	}
}

// bypass removes v, connecting all predecessors to all successors.
func (g *Graph) bypass(v int) {
	preds := sortedKeys(g.in[v])
	succs := sortedKeys(g.out[v])
	g.remove(v)
	for _, u := range preds {
		for _, w := range succs {
			g.AddEdge(u, w)
		}
	}
}

// Symmetrize applies the paper's fourth transformation: live vertices
// with identical fanin sets and identical fanout sets (self-edges
// excluded from the comparison) are merged into one supervertex whose
// weight is the sum of the group. Returns the number of merges
// performed.
func (g *Graph) Symmetrize() int {
	sig := make(map[string][]int)
	for v := range g.alive {
		if !g.alive[v] {
			continue
		}
		key := neighborSignature(g.in[v], v) + "|" + neighborSignature(g.out[v], v)
		sig[key] = append(sig[key], v)
	}
	merges := 0
	//dominolint:nondet-ok groups are disjoint, and a merge reads only edges inside its own group, which no other group's merge removes
	for _, group := range sig {
		if len(group) < 2 {
			continue
		}
		sort.Ints(group)
		head := group[0]
		var nameParts []string
		for _, v := range group {
			nameParts = append(nameParts, g.names[v])
		}
		for _, v := range group[1:] {
			g.weight[head] += g.weight[v]
			g.members[head] = append(g.members[head], g.members[v]...)
			// Self-loops within the group become self-loops of the head.
			if g.out[v][head] || g.in[v][head] || g.out[head][v] {
				g.AddEdge(head, head)
			}
			g.remove(v)
			merges++
		}
		g.names[head] = strings.Join(nameParts, "")
	}
	return merges
}

func neighborSignature(set map[int]bool, self int) string {
	var parts []string
	for _, k := range sortedKeys(set) {
		if k != self {
			parts = append(parts, strconv.Itoa(k))
		}
	}
	return strings.Join(parts, ",")
}

// Options configures MFVS.
type Options struct {
	// Symmetry enables the paper's supervertex transformation between
	// reduction rounds (the "enhanced" MFVS). Disabling it gives the
	// classical baseline for the ablation benchmark.
	Symmetry bool
	// ExactLimit: below this many live vertices after reduction, an exact
	// branch-and-bound finishes the job (default 16; 0 disables).
	ExactLimit int
}

// DefaultOptions enables the paper's enhancements.
func DefaultOptions() Options { return Options{Symmetry: true, ExactLimit: 16} }

// MFVS computes a feedback vertex set of the graph (destructively on a
// clone) using reductions, optional symmetrization, exact search on small
// remainders and a greedy fallback. The solution is reported in original
// vertex indexes.
func MFVS(g *Graph, opts Options) Solution {
	w := g.Clone()
	var sol Solution
	for {
		w.Reduce(&sol)
		if opts.Symmetry {
			if w.Symmetrize() > 0 {
				continue
			}
		}
		break
	}
	if w.NumAlive() == 0 {
		sortInts(sol.Vertices)
		return sol
	}
	if opts.ExactLimit > 0 && w.NumAlive() <= opts.ExactLimit {
		exact := exactMFVS(w)
		for _, v := range exact {
			sol.Vertices = append(sol.Vertices, w.members[v]...)
			sol.Weight += w.weight[v]
		}
		sortInts(sol.Vertices)
		return sol
	}
	// Greedy: repeatedly take the vertex with the best cycle-breaking
	// score per unit weight, processing heavier supervertices first on
	// ties (the paper's descending-weight rule), then re-reduce.
	for w.NumAlive() > 0 {
		best, bestScore := -1, -1.0
		for v := range w.alive {
			if !w.alive[v] {
				continue
			}
			score := float64(len(w.in[v])*len(w.out[v])) / float64(w.weight[v])
			if score > bestScore || (score == bestScore && best >= 0 && w.weight[v] > w.weight[best]) {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			break
		}
		w.take(best, &sol)
		w.Reduce(&sol)
		if opts.Symmetry {
			w.Symmetrize()
		}
	}
	sortInts(sol.Vertices)
	return sol
}

// exactMFVS finds a minimum-weight FVS of the live subgraph by
// branch-and-bound on cycles, returning live vertex indexes.
func exactMFVS(g *Graph) []int {
	bestWeight := 1 << 30
	var best []int
	var rec func(cur *Graph, taken []int, weight int)
	rec = func(cur *Graph, taken []int, weight int) {
		if weight >= bestWeight {
			return
		}
		reduced := cur.Clone()
		var rsol Solution
		reduced.Reduce(&rsol)
		// Reduction-taken vertices are supervertices of `cur`; they are
		// accounted by weight but we need their cur-level identity: the
		// Reduce path stores original members, so translate via member
		// heads. Simpler: track weight and member list directly.
		weight += rsol.Weight
		if weight >= bestWeight {
			return
		}
		cyc := findCycle(reduced)
		if cyc == nil {
			total := append(append([]int(nil), taken...), rsol.Vertices...)
			bestWeight = weight
			best = total
			return
		}
		for _, v := range cyc {
			next := reduced.Clone()
			w2 := weight + next.weight[v]
			t2 := append(append([]int(nil), taken...), append([]int(nil), rsol.Vertices...)...)
			t2 = append(t2, next.members[v]...)
			next.remove(v)
			rec(next, t2, w2)
		}
	}
	rec(g, nil, 0)
	// Translate original member indexes back to live vertex heads of g.
	headOf := make(map[int]int)
	for v := range g.alive {
		if g.alive[v] {
			for _, m := range g.members[v] {
				headOf[m] = v
			}
		}
	}
	seen := make(map[int]bool)
	var out []int
	for _, m := range best {
		if h, ok := headOf[m]; ok && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// findCycle returns the vertices of one directed cycle in the live
// subgraph, or nil if acyclic. exactMFVS keeps the first minimum-weight
// cut it meets while branching on this cycle, so successors are visited
// in ascending order, never in map order.
func findCycle(g *Graph) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.alive))
	parent := make([]int, len(g.alive))
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		for _, w := range sortedKeys(g.out[v]) {
			if !g.alive[w] {
				continue
			}
			if color[w] == gray {
				// Found a back edge; reconstruct v -> ... -> w.
				cycle = []int{w}
				for x := v; x != w; x = parent[x] {
					cycle = append(cycle, x)
				}
				return true
			}
			if color[w] == white {
				parent[w] = v
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := range g.alive {
		if g.alive[v] && color[v] == white {
			if dfs(v) {
				return cycle
			}
		}
	}
	return nil
}

// IsFeedbackSet verifies that removing the given original vertices from
// the graph leaves it acyclic — the correctness predicate for every MFVS
// test.
func (g *Graph) IsFeedbackSet(original []int) bool {
	removed := make(map[int]bool, len(original))
	for _, v := range original {
		removed[v] = true
	}
	w := g.Clone()
	for v := range w.alive {
		if !w.alive[v] {
			continue
		}
		for _, m := range w.members[v] {
			if removed[m] {
				w.remove(v)
				break
			}
		}
	}
	return findCycle(w) == nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortInts(s []int) { sort.Ints(s) }
