// Command mfvspart partitions a sequential circuit for power estimation:
// it builds the s-graph, runs the enhanced MFVS (with the paper's
// symmetry-based supervertex transformation, Figure 9), cuts the feedback
// flip-flops and reports the resulting combinational block and
// steady-state probabilities.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/blif"
	"repro/internal/gen"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfvspart: ")
	blifPath := flag.String("blif", "", "sequential BLIF file (default: a generated example)")
	ffs := flag.Int("ffs", 16, "flip-flop count for the generated example")
	gates := flag.Int("gates", 80, "gate count for the generated example")
	seed := flag.Int64("seed", 1, "seed for the generated example")
	p := flag.Float64("p", 0.5, "primary input signal probability")
	noSymmetry := flag.Bool("nosym", false, "disable the symmetry supervertex transformation")
	flag.Parse()

	var c *seq.Circuit
	var err error
	if *blifPath != "" {
		f, oErr := os.Open(*blifPath)
		if oErr != nil {
			log.Fatal(oErr)
		}
		m, pErr := blif.Parse(f)
		f.Close()
		if pErr != nil {
			log.Fatal(pErr)
		}
		c, err = seq.FromModel(m)
	} else {
		c, err = gen.Sequential(gen.SeqParams{
			Name: "example", Inputs: 8, FFs: *ffs, Gates: *gates, Seed: *seed, TwinProb: 0.5,
		})
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("circuit: %s — %d FFs, %d real PIs, %d real POs\n",
		c.Comb.Name, len(c.FFs), len(c.RealInputs), len(c.RealOutputs))

	g := c.SGraph()
	edges := 0
	for u := 0; u < len(c.FFs); u++ {
		for v := 0; v < len(c.FFs); v++ {
			if g.HasEdge(u, v) {
				edges++
			}
		}
	}
	fmt.Printf("s-graph: %d vertices, %d edges\n", len(c.FFs), edges)

	opts := sgraph.DefaultOptions()
	opts.Symmetry = !*noSymmetry
	sol := sgraph.MFVS(g, opts)
	names := make([]string, 0, len(sol.Vertices))
	for _, v := range sol.Vertices {
		names = append(names, g.Name(v))
	}
	sort.Strings(names)
	fmt.Printf("MFVS (symmetry=%v): weight %d, cut %v\n", opts.Symmetry, sol.Weight, names)

	probs := make([]float64, c.Comb.NumInputs())
	for _, pos := range c.RealInputs {
		probs[pos] = *p
	}
	part, _, nodeProbs, err := c.SteadyStateProbs(seq.SteadyOptions{InputProbs: probs, Cut: sol.Vertices})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned block: %d nodes, %d inputs (%d pseudo from cut FFs), %d outputs\n",
		part.Block.NumNodes(), part.Block.NumInputs(), part.PseudoInputCount(), part.Block.NumOutputs())
	fmt.Println("steady-state next-state probabilities of cut flip-flops:")
	for i, ffIdx := range sol.Vertices {
		fmt.Printf("  %-12s %.4f\n", c.FFs[ffIdx].Name, nodeProbs[part.Block.Outputs()[part.NextState[i]].Driver])
	}
}
