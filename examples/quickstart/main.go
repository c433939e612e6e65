// Quickstart: build a small logic network, synthesize it as a low-power
// domino block with the paper's phase-assignment heuristic, and compare
// against the minimum-area baseline.
package main

import (
	"fmt"
	"log"

	"repro/internal/flow"
	"repro/internal/logic"
)

func main() {
	// f = not(a+b) + not(c·d), g = (a+b) + (c·d): the running example of
	// the paper's Figures 3-5. Technology-independent synthesis leaves
	// inverters in the netlist; domino cannot implement them internally.
	n := logic.New("quickstart")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddOr(a, b)
	y := n.AddAnd(c, d)
	n.MarkOutput("f", n.AddOr(n.AddNot(x), n.AddNot(y)))
	n.MarkOutput("g", n.AddOr(x, y))

	// High input probabilities make the phase choice matter: domino
	// gates switch with probability equal to their signal probability.
	cfg := flow.Config{InputProb: 0.9, SimVectors: 50000}
	net := flow.Prepare(n)
	ma, err := flow.SynthesizeMA(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mp, err := flow.SynthesizeMP(net, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("minimum-area phase assignment (MA):")
	describe(ma)
	fmt.Println("\nminimum-power phase assignment (MP):")
	describe(mp)
	fmt.Printf("\npower saving: %.1f%% for %.1f%% more cells\n",
		100*(ma.SimPower-mp.SimPower)/ma.SimPower,
		100*float64(mp.Size-ma.Size)/float64(ma.Size))
}

func describe(s *flow.Synthesis) {
	fmt.Printf("  phases      %s  (+ = direct output, - = inverter at boundary)\n", s.Assignment)
	fmt.Printf("  cells       %d (area %.0f)\n", s.Size, s.Block.Area())
	fmt.Printf("  est power   %.4f\n", s.EstPower)
	fmt.Printf("  sim power   %.4f\n", s.SimPower)
	fmt.Printf("  crit delay  %.2f\n", s.Critical)
}
