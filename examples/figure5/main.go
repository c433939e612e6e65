// Figure 5 walkthrough: reproduces the paper's worked example showing
// that two phase assignments of the same two functions differ by ~75% in
// total switching at input probability 0.9, with every intermediate
// number printed next to the paper's.
package main

import (
	"fmt"
	"log"

	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/prob"
	"repro/internal/sim"
)

func main() {
	n := logic.New("fig5")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddOr(a, b)
	y := n.AddAnd(c, d)
	n.MarkOutput("f", n.AddOr(n.AddNot(x), n.AddNot(y))) // f = (a+b)' + (cd)'
	n.MarkOutput("g", n.AddOr(x, y))                     // g = (a+b) + (cd)

	probs := prob.Uniform(n, 0.9)
	fmt.Println("Figure 5 of the paper, input signal probabilities 0.9")
	fmt.Println()
	left := analyze(n, phase.Assignment{true, false}, probs)
	fmt.Printf("left realization  (f negative, g positive):\n")
	fmt.Printf("  domino block switching      %7.4f   (paper: 3.6)\n", left.domino)
	fmt.Printf("  input inverter switching    %7.4f   (paper: 0.0)\n", left.inInv)
	fmt.Printf("  output inverter switching   %7.4f   (paper: .8019)\n", left.outInv)
	fmt.Printf("  total                       %7.4f\n", left.total())
	fmt.Println()
	right := analyze(n, phase.Assignment{false, true}, probs)
	fmt.Printf("right realization (f positive, g negative):\n")
	fmt.Printf("  domino block switching      %7.4f   (paper: .40)\n", right.domino)
	fmt.Printf("  input inverter switching    %7.4f   (paper: .72)\n", right.inInv)
	fmt.Printf("  output inverter switching   %7.4f   (paper: .0019)\n", right.outInv)
	fmt.Printf("  total                       %7.4f\n", right.total())
	fmt.Println()
	fmt.Printf("reduction: %.1f%% fewer transitions (paper: 75%%)\n",
		100*(1-right.total()/left.total()))
	fmt.Println()

	// Cross-check the closed-form model with the Monte-Carlo simulator.
	for name, asg := range map[string]phase.Assignment{
		"left":  {true, false},
		"right": {false, true},
	} {
		res, err := phase.Apply(n, asg)
		if err != nil {
			log.Fatal(err)
		}
		blk, err := domino.Map(res, domino.DefaultLibrary())
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sim.Run(blk, sim.Config{Vectors: 500000, Seed: 7, InputProbs: probs})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated unweighted transitions (%s): domino %.4f per cycle\n",
			name, float64(rep.DominoTransitions)/float64(rep.Cycles))
	}
}

type breakdown struct {
	domino, inInv, outInv float64
}

func (b breakdown) total() float64 { return b.domino + b.inInv + b.outInv }

func analyze(n *logic.Network, asg phase.Assignment, probs []float64) breakdown {
	res, err := phase.Apply(n, asg)
	if err != nil {
		log.Fatal(err)
	}
	blockProbs, err := prob.Exact(res.Block, res.BlockInputProbs(probs))
	if err != nil {
		log.Fatal(err)
	}
	var out breakdown
	for i := 0; i < res.Block.NumNodes(); i++ {
		k := res.Block.Kind(logic.NodeID(i))
		if k.IsGate() && k != logic.KindBuf {
			out.domino += prob.DominoSwitching(blockProbs[i])
		}
	}
	for _, bi := range res.Inputs {
		if bi.Inverted {
			out.inInv += prob.BoundaryInputInverterSwitching(probs[bi.InputPos])
		}
	}
	for i, bo := range res.Outputs {
		if bo.Negated {
			out.outInv += prob.BoundaryOutputInverterSwitching(blockProbs[res.Block.Outputs()[i].Driver])
		}
	}
	return out
}
