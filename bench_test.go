// Package repro's root benchmarks regenerate the paper's figures and
// the ablations; Tables 1 and 2 are the bench module's table1 and
// table2 workloads, and the kernel micro-benchmarks live in their
// packages (internal/bdd, internal/sim). Custom metrics attach the
// headline quantities to the bench output, e.g. %sav, the measured
// power saving of MP over MA.
//
// Run a single experiment with e.g.
//
//	go test -bench 'BenchmarkFigure5' -benchtime 1x
package repro_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/order"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
	"repro/internal/sgraph"
)

// --- Figure 2: switching vs signal probability ------------------------

func BenchmarkFigure2Curves(b *testing.B) {
	b.ReportAllocs()
	var crossover float64
	for i := 0; i < b.N; i++ {
		dom, sta := prob.Figure2Curves(1000)
		// The curves cross at p = 0.5; beyond it domino switches more.
		for j := range dom {
			if dom[j].S > sta[j].S {
				crossover = dom[j].P
				break
			}
		}
	}
	b.ReportMetric(crossover, "crossover_p")
}

// --- Figures 3/4: inverter removal and trapped-inverter duplication ---

func figure5Network() *logic.Network {
	n := logic.New("fig5")
	a := n.AddInput("a")
	bb := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddOr(a, bb)
	y := n.AddAnd(c, d)
	n.MarkOutput("f", n.AddOr(n.AddNot(x), n.AddNot(y)))
	n.MarkOutput("g", n.AddOr(x, y))
	return n
}

func BenchmarkFigure3InverterRemoval(b *testing.B) {
	b.ReportAllocs()
	n := figure5Network()
	var inverterFree bool
	for i := 0; i < b.N; i++ {
		r, err := phase.Apply(n, phase.Assignment{true, false})
		if err != nil {
			b.Fatal(err)
		}
		inverterFree = !r.Block.HasInverters()
	}
	if !inverterFree {
		b.Fatal("block not inverter-free")
	}
}

func BenchmarkFigure4Duplication(b *testing.B) {
	b.ReportAllocs()
	// Conflicting phases on shared logic: measure the duplication factor.
	n := gen.Generate(gen.Params{Name: "dup", Inputs: 16, Outputs: 8, Gates: 120, Seed: 5, OrProb: 0.6})
	net := flow.Prepare(n)
	agree := phase.AllPositive(net.NumOutputs())
	conflict := phase.AllPositive(net.NumOutputs())
	for i := range conflict {
		conflict[i] = i%2 == 1
	}
	var factor float64
	for i := 0; i < b.N; i++ {
		ra, err := phase.Apply(net, agree)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := phase.Apply(net, conflict)
		if err != nil {
			b.Fatal(err)
		}
		factor = float64(rc.Block.GateCount()) / float64(ra.Block.GateCount())
	}
	b.ReportMetric(factor, "duplication_x")
}

// --- Figure 5: the 75% switching reduction -----------------------------

func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	n := figure5Network()
	probs := prob.Uniform(n, 0.9)
	lib := domino.DefaultLibrary()
	var reduction float64
	for i := 0; i < b.N; i++ {
		totals := [2]float64{}
		for k, asg := range []phase.Assignment{{true, false}, {false, true}} {
			r, err := phase.Apply(n, asg)
			if err != nil {
				b.Fatal(err)
			}
			blk, err := domino.Map(r, lib)
			if err != nil {
				b.Fatal(err)
			}
			s, err := totalSwitching(blk, probs)
			if err != nil {
				b.Fatal(err)
			}
			totals[k] = s
		}
		reduction = 100 * (1 - totals[1]/totals[0])
	}
	b.ReportMetric(reduction, "%fewer_transitions") // paper: 75
}

// totalSwitching is Figure 5's metric: the block's unweighted total
// switching (every load and penalty 1) under exact probabilities — each
// domino cell's, then each boundary inverter's, read from Estimate's
// node probabilities.
func totalSwitching(blk *domino.Block, probs []float64) (float64, error) {
	rep, err := power.Estimate(blk, probs, power.Options{Method: power.Exact})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for ci := range blk.Cells {
		total += prob.DominoSwitching(rep.NodeProbs[blk.Cells[ci].Node])
	}
	for _, bi := range blk.Phase.Inputs {
		if bi.Inverted {
			total += prob.BoundaryInputInverterSwitching(probs[bi.InputPos])
		}
	}
	for i, bo := range blk.Phase.Outputs {
		if bo.Negated {
			total += prob.BoundaryOutputInverterSwitching(rep.NodeProbs[blk.Net.Outputs()[i].Driver])
		}
	}
	return total, nil
}

// --- Figure 6: the overall paradigm loop -------------------------------

func BenchmarkFigure6ParadigmLoop(b *testing.B) {
	b.ReportAllocs()
	// One full iteration of the Figure 6 loop on a mid-size circuit:
	// candidate generation (K ranking), synthesis, power measurement.
	c := gen.Apex7()
	net := flow.Prepare(c.Net)
	probs := prob.Uniform(net, 0.5)
	lib := domino.DefaultLibrary()
	eval := power.NewEstimator(lib, probs, power.Options{}).Evaluate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := phase.MinPower(net, phase.PowerOptions{
			InputProbs: probs, Evaluate: eval,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: partitioning quality ------------------------------------

func BenchmarkFigure7Partition(b *testing.B) {
	b.ReportAllocs()
	c, err := gen.Sequential(gen.SeqParams{Name: "part", Inputs: 10, FFs: 20, Gates: 100, Seed: 21, TwinProb: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	var pseudo int
	for i := 0; i < b.N; i++ {
		cut := c.Cut(sgraph.DefaultOptions())
		p, err := c.Partition(cut)
		if err != nil {
			b.Fatal(err)
		}
		pseudo = p.PseudoInputCount()
	}
	b.ReportMetric(float64(pseudo), "pseudo_inputs")
}

// --- Figures 8/9: MFVS reductions and the symmetry transformation ------

func twinHeavyGraph() *sgraph.Graph {
	c, err := gen.Sequential(gen.SeqParams{Name: "tw", Inputs: 8, FFs: 40, Gates: 160, Seed: 33, TwinProb: 0.7})
	if err != nil {
		panic(err)
	}
	return c.SGraph()
}

func BenchmarkFigure9MFVSEnhanced(b *testing.B) {
	b.ReportAllocs()
	g := twinHeavyGraph()
	var w int
	for i := 0; i < b.N; i++ {
		w = sgraph.MFVS(g, sgraph.DefaultOptions()).Weight
	}
	b.ReportMetric(float64(w), "cut_ffs")
}

func BenchmarkFigure9MFVSBaseline(b *testing.B) {
	b.ReportAllocs()
	g := twinHeavyGraph()
	var w int
	for i := 0; i < b.N; i++ {
		w = sgraph.MFVS(g, sgraph.Options{Symmetry: false, ExactLimit: 16}).Weight
	}
	b.ReportMetric(float64(w), "cut_ffs")
}

// --- Figure 10: BDD variable ordering -----------------------------------

func BenchmarkFigure10Ordering(b *testing.B) {
	b.ReportAllocs()
	n := logic.New("fig10")
	x1 := n.AddInput("x1")
	x2 := n.AddInput("x2")
	x3 := n.AddInput("x3")
	x4 := n.AddInput("x4")
	x5 := n.AddInput("x5")
	p := n.AddAnd(x1, x2, x3)
	q := n.AddAnd(x3, x4)
	r := n.AddOr(p, q, x5)
	n.MarkOutput("P", p)
	n.MarkOutput("Q", q)
	n.MarkOutput("R", r)
	cases := []struct {
		name string
		ord  []int
	}{
		{"reverse_topological", order.ReverseTopological(n)},
		{"topological", order.Topological(n)},
		{"disturbed", []int{4, 0, 3, 2, 1}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var count int
			for i := 0; i < b.N; i++ {
				nb, err := bdd.BuildNetwork(bdd.NewWithOrder(n.NumInputs(), c.ord), n, nil)
				if err != nil {
					b.Fatal(err)
				}
				count = nb.Manager.NodeCount(nb.NodeRefs[p], nb.NodeRefs[q], nb.NodeRefs[r])
			}
			b.ReportMetric(float64(count), "bdd_nodes")
		})
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationOrdering compares exact power estimation cost under
// the paper's variable order versus the natural order on a benchmark
// twin — the payoff of Section 4.2.2.
func BenchmarkAblationOrdering(b *testing.B) {
	b.ReportAllocs()
	net := flow.Prepare(gen.Generate(gen.Params{Name: "abl", Inputs: 20, Outputs: 8, Gates: 260, Seed: 77, OrProb: 0.6}))
	res, err := phase.Apply(net, phase.AllPositive(net.NumOutputs()))
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(res, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	probs := prob.Uniform(net, 0.5)
	// Options.Order ranges over the *original* primary-input variables.
	cases := []struct {
		name string
		ord  []int
	}{
		{"reverse_topological", nil}, // Estimate's default
		{"natural", order.Natural(net)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := power.Estimate(blk, probs, power.Options{Method: power.Exact, Order: c.ord}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProbabilityEngine compares the exact BDD engine with
// the approximate propagation inside the MinPower loop.
func BenchmarkAblationProbabilityEngine(b *testing.B) {
	b.ReportAllocs()
	net := flow.Prepare(gen.Generate(gen.Params{Name: "abl2", Inputs: 16, Outputs: 6, Gates: 160, Seed: 78, OrProb: 0.65}))
	probs := prob.Uniform(net, 0.5)
	lib := domino.DefaultLibrary()
	for _, m := range []struct {
		name   string
		method power.Method
	}{{"exact", power.Exact}, {"approximate", power.Approximate}, {"limited_depth", power.LimitedDepth}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var est float64
			for i := 0; i < b.N; i++ {
				_, _, p, _, err := phase.MinPower(net, phase.PowerOptions{
					InputProbs: probs,
					Evaluate:   power.NewEstimator(lib, probs, power.Options{Method: m.method}).Evaluate,
				})
				if err != nil {
					b.Fatal(err)
				}
				est = p
			}
			b.ReportMetric(est, "est_power")
		})
	}
}

// BenchmarkAblationPenalty explores the paper's future-work direction
// (timing-integrated phase assignment) through the P_i knob: the timed
// flow with and without the AND-stack penalty in the library
// (Lib.AndPenalty), reporting the AND-cell count of the chosen MP
// synthesis and its resize effort.
func BenchmarkAblationPenalty(b *testing.B) {
	b.ReportAllocs()
	c := gen.NamedCircuit{
		Name: "orheavy",
		Net:  gen.Generate(gen.Params{Name: "orheavy", Inputs: 14, Outputs: 5, Gates: 90, Seed: 0x7A12, OrProb: 0.8}),
	}
	for _, pen := range []struct {
		name string
		val  float64
	}{{"penalty_0", 0}, {"penalty_0.4", 0.4}} {
		pen := pen
		b.Run(pen.name, func(b *testing.B) {
			b.ReportAllocs()
			lib := domino.DefaultLibrary()
			lib.AndPenalty = pen.val
			var andCells, steps float64
			for i := 0; i < b.N; i++ {
				row, err := flow.RunCircuitTimed(c, flow.Config{SimVectors: 1024, Lib: &lib})
				if err != nil {
					b.Fatal(err)
				}
				andCells = countAnd(row)
				steps = float64(row.MP.ResizeSteps)
			}
			b.ReportMetric(andCells, "mp_and_cells")
			b.ReportMetric(steps, "mp_resize_steps")
		})
	}
}

func countAnd(row *flow.Row) float64 {
	n := 0
	for i := range row.MP.Block.Cells {
		if row.MP.Block.Cells[i].Kind == logic.KindAnd {
			n++
		}
	}
	return float64(n)
}

// BenchmarkSequentialFlow runs the full Section 4.2 sequential pipeline.
func BenchmarkSequentialFlow(b *testing.B) {
	b.ReportAllocs()
	c, err := gen.Sequential(gen.SeqParams{
		Name: "seqbench", Inputs: 10, FFs: 14, Gates: 80, Seed: 41, TwinProb: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sav float64
	for i := 0; i < b.N; i++ {
		row, err := flow.RunSequential(c, flow.Config{SimVectors: 1024})
		if err != nil {
			b.Fatal(err)
		}
		sav = row.PowerSavingPct
	}
	b.ReportMetric(sav, "%sav")
}

// --- Search strategies --------------------------------------------------

// strategyBenchNet is a 10-output circuit: its 2^10 phase space is small
// enough to enumerate and large enough for pruning to show.
func strategyBenchNet() *logic.Network {
	return flow.Prepare(gen.Generate(gen.Params{
		Name: "parbench", Inputs: 16, Outputs: 10, Gates: 110, Seed: 0x9A11, OrProb: 0.65,
	}))
}

// BenchmarkSearchStrategies runs the pluggable search strategies over
// the cone table's incremental score state on a 10-output circuit:
// gray-code exhaustive (one O(Δ) Flip per candidate), exact
// branch-and-bound (bit-identical winner, prunes the 2^k space), and
// the seeded heuristics (anneal, greedy), which no bench workload runs.
// best_power must agree across the exact rows.
func BenchmarkSearchStrategies(b *testing.B) {
	net := strategyBenchNet()
	probs := prob.Uniform(net, 0.5)
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []phase.SearchStrategy{
		phase.StrategyExhaustive, phase.StrategyBranchBound,
		phase.StrategyAnneal, phase.StrategyGreedy,
	} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			var score float64
			for i := 0; i < b.N; i++ {
				_, _, s, err := phase.Search(net, phase.SearchOptions{
					Strategy: strat, Scorer: table, Workers: 1, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				score = s
			}
			b.ReportMetric(score, "best_power")
		})
	}
}
