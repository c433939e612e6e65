// sequential_partition: demonstrates the paper's Section 4.2.1 pipeline.
//
// Part 1 builds a sequential circuit whose s-graph is exactly the
// paper's Figure 9: flip-flops A, B, E with identical fanins and fanouts
// {C, D}, and C, D likewise symmetric over {A, B, E}. The classical MFVS
// reductions (Figure 8) cannot touch the graph and the greedy baseline
// cuts three flip-flops; the paper's symmetry-based supervertex
// transformation merges {A,B,E} (weight 3) and {C,D} (weight 2) and cuts
// only C and D — a smaller cut, hence a combinational block with fewer
// pseudo primary inputs (Figure 7's "ideal partitioning") and cheaper
// BDDs.
//
// Part 2 runs the same comparison on a generated duplication-heavy
// circuit.
package main

import (
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

func main() {
	c := figure9Circuit()
	fmt.Println("Figure 9 sequential circuit: FFs A,B,E depend on {C,D}; C,D depend on {A,B,E}")

	g := c.SGraph()
	// The classical reductions of Figure 8 are stuck on this graph; the
	// symmetry transformation collapses it from 5 vertices to 2, which is
	// what makes exact search affordable on duplication-heavy blocks.
	probe := g.Clone()
	var stuck sgraph.Solution
	probe.Reduce(&stuck)
	fmt.Printf("after classical reductions: %d vertices (stuck)\n", probe.NumAlive())
	probe.Symmetrize()
	fmt.Printf("after symmetrization:       %d supervertices\n", probe.NumAlive())

	baseline := sgraph.MFVS(g, sgraph.Options{Symmetry: false, ExactLimit: 0})
	enhanced := sgraph.MFVS(g, sgraph.DefaultOptions())
	fmt.Printf("classical MFVS cut: %d flip-flops (%s)\n", baseline.Weight, names(c, baseline.Vertices))
	fmt.Printf("enhanced MFVS cut:  %d flip-flops (%s)   <- via supervertices ABE(3), CD(2)\n",
		enhanced.Weight, names(c, enhanced.Vertices))

	pb, err := c.Partition(baseline.Vertices)
	if err != nil {
		log.Fatal(err)
	}
	pe, err := c.Partition(enhanced.Vertices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pseudo primary inputs: classical %d, enhanced %d\n", pb.PseudoInputCount(), pe.PseudoInputCount())
	fmt.Printf("block BDD variables:   classical %d, enhanced %d\n", pb.Block.NumInputs(), pe.Block.NumInputs())

	probs := make([]float64, c.Comb.NumInputs())
	for _, pos := range c.RealInputs {
		probs[pos] = 0.5
	}
	ps, _, nodeProbs, err := c.SteadyStateProbs(seq.SteadyOptions{InputProbs: probs, Cut: enhanced.Vertices})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("steady-state probabilities of the cut flip-flops:")
	for i, ffIdx := range enhanced.Vertices {
		fmt.Printf("  %-4s %.4f\n", c.FFs[ffIdx].Name, nodeProbs[ps.Block.Outputs()[ps.NextState[i]].Driver])
	}

	fmt.Println("\nduplication-heavy generated circuit:")
	c2, err := gen.Sequential(gen.SeqParams{
		Name: "dup_heavy", Inputs: 10, FFs: 24, Gates: 120, Seed: 42, TwinProb: 0.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	g2 := c2.SGraph()
	b2 := sgraph.MFVS(g2, sgraph.Options{Symmetry: false, ExactLimit: 0})
	e2 := sgraph.MFVS(g2, sgraph.DefaultOptions())
	fmt.Printf("  %d FFs: classical cut %d, enhanced cut %d\n", len(c2.FFs), b2.Weight, e2.Weight)
}

// figure9Circuit realizes the Figure 9 s-graph as a real circuit: five
// flip-flops whose next-state functions create exactly the edges of the
// figure.
func figure9Circuit() *seq.Circuit {
	n := logic.New("fig9seq")
	// FF outputs as pseudo-inputs.
	qA := n.AddInput("A")
	qB := n.AddInput("B")
	qC := n.AddInput("C")
	qD := n.AddInput("D")
	qE := n.AddInput("E")
	x := n.AddInput("x")
	// A, B, E each read C and D; C, D each read A, B and E.
	n.MarkOutput("nsA", n.AddAnd(qC, qD))
	n.MarkOutput("nsB", n.AddOr(qC, qD))
	n.MarkOutput("nsE", n.AddOr(n.AddAnd(qC, qD), x))
	n.MarkOutput("nsC", n.AddAnd(qA, qB, qE))
	n.MarkOutput("nsD", n.AddOr(qA, qB, qE))
	n.MarkOutput("z", n.AddOr(qA, qC))
	c, err := seq.New(n,
		[]int{0, 1, 2, 3, 4},
		[]int{0, 1, 3, 4, 2}, // nsA, nsB, nsC, nsD, nsE output indexes
		[]string{"A", "B", "C", "D", "E"})
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func names(c *seq.Circuit, ffs []int) string {
	s := ""
	for i, f := range ffs {
		if i > 0 {
			s += ","
		}
		s += c.FFs[f].Name
	}
	return s
}
