// Package repro's root benchmarks regenerate every table and figure of
// the paper (see EXPERIMENTS.md for the index and paper-vs-measured
// numbers). Custom metrics attach the headline quantities to the bench
// output: %sav is the measured power saving of MP over MA, %areapen the
// area penalty — the two columns of Tables 1 and 2.
//
// Run a single experiment with e.g.
//
//	go test -bench 'BenchmarkTable1Row/frg1' -benchtime 1x
package repro_test

import (
	"fmt"
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
	"repro/internal/sim"
	"repro/internal/timing"
)

// --- Table 1 ---------------------------------------------------------

func BenchmarkTable1Row(b *testing.B) {
	b.ReportAllocs()
	for _, c := range gen.Table1Circuits() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			var row *flow.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = flow.RunCircuit(c, flow.Config{SimVectors: 4096})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.PowerSavingPct, "%sav")
			b.ReportMetric(row.AreaPenaltyPct, "%areapen")
			b.ReportMetric(c.PaperPwrSav, "paper%sav")
		})
	}
}

// --- Table 2 ---------------------------------------------------------

func BenchmarkTable2Row(b *testing.B) {
	b.ReportAllocs()
	for _, c := range gen.Table2Circuits() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			var row *flow.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = flow.RunCircuitTimed(c, flow.Config{SimVectors: 4096})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.PowerSavingPct, "%sav")
			b.ReportMetric(row.AreaPenaltyPct, "%areapen")
			b.ReportMetric(c.PaperPwrSav, "paper%sav")
		})
	}
}

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
			s, err := power.SwitchingOnly(blk, probs, power.Options{Method: power.Exact})
			if err != nil {
				b.Fatal(err)
			}
			totals[k] = s
		}
		reduction = 100 * (1 - totals[1]/totals[0])
	}
	b.ReportMetric(reduction, "%fewer_transitions") // paper: 75
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
	eval := power.Evaluator(lib, probs, power.Options{})
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
				nb, err := bdd.BuildNetwork(n, c.ord)
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
					Evaluate:   power.Evaluator(lib, probs, power.Options{Method: m.method}),
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
// (timing-integrated phase assignment) through the P_i knob: the MP
// objective with and without the AND-stack penalty, reporting the
// AND-cell count of the chosen synthesis and its resize effort.
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
			var andCells, steps float64
			for i := 0; i < b.N; i++ {
				if pen.val == 0 {
					row, err := flow.RunCircuitTimed(c, flow.Config{SimVectors: 1024})
					if err != nil {
						b.Fatal(err)
					}
					andCells = countAnd(row)
					steps = float64(row.MP.ResizeSteps)
				} else {
					res, err := flow.RunCircuitTimingAware(c, flow.Config{SimVectors: 1024}, pen.val)
					if err != nil {
						b.Fatal(err)
					}
					andCells = countAnd(res.Penalized)
					steps = float64(res.PenalizedResizeSteps)
				}
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

// BenchmarkSimulatorThroughput measures the PowerMill stand-in on a
// Table 1-scale block (vectors/sec scale check).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	c := gen.X1()
	net := flow.Prepare(c.Net)
	res, err := phase.Apply(net, phase.AllPositive(net.NumOutputs()))
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(res, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	probs := prob.Uniform(net, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(blk, sim.Config{Vectors: 4096, Seed: 1, InputProbs: probs}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine: sequential vs sharded/pooled paths ---------------

// parallelBenchNet is a 10-output circuit whose 2^10 phase space makes
// the exhaustive search heavy enough to shard meaningfully.
func parallelBenchNet() *logic.Network {
	return flow.Prepare(gen.Generate(gen.Params{
		Name: "parbench", Inputs: 16, Outputs: 10, Gates: 110, Seed: 0x9A11, OrProb: 0.65,
	}))
}

// BenchmarkExhaustiveSearch compares the sequential exhaustive phase
// search against the sharded pool at several worker counts on a
// 10-output circuit. On multi-core hardware the 4-worker case is the
// ISSUE's ≥2x wall-clock gate; results are bit-identical throughout.
func BenchmarkExhaustiveSearch(b *testing.B) {
	b.ReportAllocs()
	net := parallelBenchNet()
	probs := prob.Uniform(net, 0.5)
	eval := power.Evaluator(domino.DefaultLibrary(), probs, power.Options{})
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var score float64
			for i := 0; i < b.N; i++ {
				_, _, s, err := phase.Search(net, phase.SearchOptions{
					Strategy: phase.StrategyExhaustive, Eval: eval, Workers: workers,
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

// BenchmarkConeTableBuild isolates the one-time cone-table build that
// BenchmarkSearchStrategies amortizes over its searches.
func BenchmarkConeTableBuild(b *testing.B) {
	net := parallelBenchNet()
	probs := prob.Uniform(net, 0.5)
	lib := domino.DefaultLibrary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := power.NewConeTable(net, lib, probs, power.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchStrategies runs the pluggable strategies (ISSUE 4)
// over the cone table's incremental score state on the same 10-output
// circuit: gray-code exhaustive (one O(Δ) Flip per candidate — compare
// against BenchmarkExhaustiveSearch's Apply + Estimate per mask), exact
// branch-and-bound (bit-identical winner, prunes the 2^k space), and
// the seeded heuristics. best_power must agree across the exact rows.
func BenchmarkSearchStrategies(b *testing.B) {
	net := parallelBenchNet()
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

// BenchmarkShardedSim compares the single-stream simulator against the
// sharded engine at a fixed shard count and growing worker pools.
func BenchmarkShardedSim(b *testing.B) {
	b.ReportAllocs()
	net := parallelBenchNet()
	res, err := phase.Apply(net, phase.AllPositive(net.NumOutputs()))
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(res, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	probs := prob.Uniform(net, 0.5)
	cases := []struct {
		name            string
		shards, workers int
	}{
		{"sequential", 1, 1},
		{"shards=8/workers=1", 8, 1},
		{"shards=8/workers=4", 8, 4},
		{"shards=8/workers=8", 8, 8},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(blk, sim.Config{
					Vectors: 16384, Seed: 1, InputProbs: probs,
					Shards: c.shards, Workers: c.workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Kernel benchmarks: bit-parallel sim and map-free BDD engine -------

// simKernelBlock maps the x1 twin for the kernel comparison.
func simKernelBlock(b *testing.B) (*domino.Block, []float64) {
	b.Helper()
	c := gen.X1()
	net := flow.Prepare(c.Net)
	res, err := phase.Apply(net, phase.AllPositive(net.NumOutputs()))
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(res, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	return blk, prob.Uniform(net, 0.5)
}

// BenchmarkSimBlockedVsScalar compares the blocked kernel against the
// scalar reference oracle on the x1 twin. Both produce byte-identical
// Reports (TestBlockedMatchesScalarAndWideKernels).
func BenchmarkSimBlockedVsScalar(b *testing.B) {
	b.ReportAllocs()
	blk, probs := simKernelBlock(b)
	for _, k := range []struct {
		name   string
		kernel sim.Kernel
	}{{"scalar", sim.KernelScalar}, {"blocked", sim.KernelBlocked}} {
		k := k
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(blk, sim.Config{
					Vectors: 4096, Seed: 1, InputProbs: probs, Kernel: k.kernel,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBDDBuild measures the shared-forest construction behind
// power.Estimate on a Table-1-scale network under the paper's
// reverse-topological order — the workload the open-addressed unique
// table and direct-mapped memo caches are built for.
func BenchmarkBDDBuild(b *testing.B) {
	b.ReportAllocs()
	net := flow.Prepare(gen.Generate(gen.Params{
		Name: "bddbuild", Inputs: 20, Outputs: 8, Gates: 260, Seed: 77, OrProb: 0.6,
	}))
	ord := order.ReverseTopological(net)
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		nb, err := bdd.BuildNetwork(net, ord)
		if err != nil {
			b.Fatal(err)
		}
		nodes = nb.Manager.NodeCount(nb.OutputRefs(net)...)
	}
	b.ReportMetric(float64(nodes), "bdd_nodes")
}

// BenchmarkResize measures the Table 2 resizing pass.
func BenchmarkResize(b *testing.B) {
	b.ReportAllocs()
	c := gen.Apex7()
	net := flow.Prepare(c.Net)
	res, err := phase.Apply(net, phase.AllPositive(net.NumOutputs()))
	if err != nil {
		b.Fatal(err)
	}
	p := timing.DefaultParams()
	for i := 0; i < b.N; i++ {
		blk, err := domino.Map(res, domino.DefaultLibrary())
		if err != nil {
			b.Fatal(err)
		}
		timing.Tighten(blk, p)
	}
}
