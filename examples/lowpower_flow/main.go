// lowpower_flow: runs the paper's Table 1 experiment end-to-end on one
// benchmark twin (frg1 by default), printing the MA/MP comparison and
// the MinPower heuristic's step trace — the committed K-guided pair
// flips of Section 4.1.
//
// With -strategy it instead searches the phase space with one of the
// pluggable strategies over the cone-table scorer and compares the
// result against the pairwise heuristic, e.g. on the 32-output twin
// where 2^32 exhaustive enumeration is infeasible:
//
//	go run ./examples/lowpower_flow -circuit wide32 -strategy anneal
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
)

func main() {
	name := flag.String("circuit", "frg1", "benchmark twin (frg1, apex7, x1, x3, wide24, wide32, wide48, ...)")
	strategy := flag.String("strategy", "", "run this search strategy (exhaustive, bb, anneal, greedy) over the cone table and compare it with the pairwise MinPower heuristic")
	seed := flag.Int64("seed", 1, "seed for the anneal/greedy strategies")
	flag.Parse()

	var circuit gen.NamedCircuit
	found := false
	for _, c := range append(gen.Table1Circuits(), gen.WideCircuits()...) {
		if c.Name == *name {
			circuit, found = c, true
		}
	}
	if !found {
		log.Fatalf("unknown circuit %q", *name)
	}

	net := flow.Prepare(circuit.Net)
	probs := prob.Uniform(net, 0.5)
	lib := domino.DefaultLibrary()

	fmt.Printf("%s: %d PIs, %d POs, %d gates after cleanup\n",
		circuit.Name, net.NumInputs(), net.NumOutputs(), net.GateCount())

	table, err := power.NewConeTable(net, lib, probs, power.Options{})
	if err != nil {
		log.Fatal(err)
	}

	if *strategy != "" {
		strat, err := phase.ParseStrategy(*strategy)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		mpAsg, _, mpScore, _, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: table})
		if err != nil {
			log.Fatal(err)
		}
		mpWall := time.Since(t0)
		t0 = time.Now()
		asg, _, score, err := phase.Search(net, phase.SearchOptions{
			Strategy: strat, Scorer: table, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npairwise MinPower heuristic: %s  score %.6f  (%v)\n", mpAsg, mpScore, mpWall)
		fmt.Printf("%-10s strategy:         %s  score %.6f  (%v)\n", strat, asg, score, time.Since(t0))
		if score < mpScore {
			fmt.Printf("strategy improves on the heuristic by %.2f%%\n", 100*(mpScore-score)/mpScore)
		}
		return
	}

	// Minimum-power heuristic with its trace, scored by the cone table.
	asg, _, pwr, trace, err := phase.MinPower(net, phase.PowerOptions{
		InputProbs: probs,
		Scorer:     table,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMinPower trace (%d pair trials):\n", len(trace))
	for _, s := range trace {
		mark := " "
		if s.Committed {
			mark = "*"
		}
		fmt.Printf(" %s pair (%d,%d) %s  K=%8.3f  power=%9.4f\n",
			mark, s.I, s.J, s.Combo, s.K, s.Power)
	}
	fmt.Printf("final assignment %s, estimated power %.4f\n", asg, pwr)

	// Full MA/MP rows as in Table 1.
	row, err := flow.RunCircuit(circuit, flow.Config{SimVectors: 8192})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTable 1 row for %s:\n", circuit.Name)
	fmt.Printf("  MA: %4d cells, measured power %8.3f\n", row.MA.Size, row.MA.SimPower)
	fmt.Printf("  MP: %4d cells, measured power %8.3f\n", row.MP.Size, row.MP.SimPower)
	fmt.Printf("  area penalty %.1f%% (paper %.1f%%), power saving %.1f%% (paper %.1f%%)\n",
		row.AreaPenaltyPct, row.PaperAreaPenaltyPct, row.PowerSavingPct, row.PaperPowerSavingPct)
}
