package flow

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/prob"
	"repro/internal/verify"
)

// smallCircuit is a miniature benchmark for fast flow tests.
func smallCircuit() gen.NamedCircuit {
	return gen.NamedCircuit{
		Name: "small", Desc: "Test",
		Net: gen.Generate(gen.Params{Name: "small", Inputs: 12, Outputs: 4, Gates: 60, Seed: 0x5AA11}),
	}
}

func TestPrepare(t *testing.T) {
	n := logic.New("x")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.MarkOutput("f", n.AddXor(a, b))
	p := Prepare(n)
	if p.CountKind(logic.KindXor) != 0 {
		t.Error("Prepare left XOR gates")
	}
	if err := verify.Check(n, p); err != nil {
		t.Errorf("Prepare changed function: %v", err)
	}
}

func TestRunCircuitUntimed(t *testing.T) {
	row, err := RunCircuit(smallCircuit(), Config{SimVectors: 2048})
	if err != nil {
		t.Fatalf("RunCircuit: %v", err)
	}
	if row.MA.Size <= 0 || row.MP.Size <= 0 {
		t.Fatalf("sizes: MA %d MP %d", row.MA.Size, row.MP.Size)
	}
	if row.MA.SimPower <= 0 || row.MP.SimPower <= 0 {
		t.Fatalf("powers: MA %v MP %v", row.MA.SimPower, row.MP.SimPower)
	}
	// MA must be the area optimum among the two.
	if row.MP.Size < row.MA.Size {
		t.Errorf("MP size %d smaller than MA size %d in untimed flow", row.MP.Size, row.MA.Size)
	}
	// Functional correctness of both syntheses.
	net := Prepare(smallCircuit().Net)
	for _, s := range []*Synthesis{&row.MA, &row.MP} {
		res, err := phase.Apply(net, s.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Check(net, res.Reconstructed()); err != nil {
			t.Errorf("synthesis %s not equivalent: %v", s.Assignment, err)
		}
	}
}

func TestMPNoWorseThanAllPositiveInEstimate(t *testing.T) {
	c := smallCircuit()
	cfg := Config{SimVectors: 1024}
	cfg.defaults()
	net := Prepare(c.Net)
	mp, err := SynthesizeMP(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate of all-positive assignment.
	probs := prob.Uniform(net, cfg.InputProb)
	evaluate := func(asg phase.Assignment) float64 {
		res, err := phase.Apply(net, asg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := synthesize(asg, res, probs, cfg, nil, false, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.EstPower
	}
	allPos := evaluate(phase.AllPositive(net.NumOutputs()))
	if mp.EstPower > allPos+1e-9 {
		t.Errorf("MP estimate %v worse than all-positive %v", mp.EstPower, allPos)
	}
}

func TestRunCircuitTimed(t *testing.T) {
	row, err := RunCircuitTimed(smallCircuit(), Config{SimVectors: 2048})
	if err != nil {
		t.Fatalf("RunCircuitTimed: %v", err)
	}
	if !row.MA.MetTiming {
		t.Error("MA failed its own slack-relaxed timing target")
	}
	if row.MA.Critical <= 0 || row.MP.Critical <= 0 {
		t.Error("missing criticals")
	}
	// Resizing must not shrink cell count and generally raises power.
	if row.MA.Size < row.MA.Block.DominoCellCount() {
		t.Error("size accounting broken")
	}
}

func TestAverages(t *testing.T) {
	rows := []*Row{
		{AreaPenaltyPct: 10, PowerSavingPct: 20},
		{AreaPenaltyPct: 20, PowerSavingPct: 40},
	}
	a, p := Averages(rows)
	if a != 15 || p != 30 {
		t.Errorf("Averages = %v, %v", a, p)
	}
	if a, p := Averages(nil); a != 0 || p != 0 {
		t.Errorf("Averages(nil) = %v, %v", a, p)
	}
}

func TestDeterministicFlow(t *testing.T) {
	r1, err := RunCircuit(smallCircuit(), Config{SimVectors: 512})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCircuit(smallCircuit(), Config{SimVectors: 512})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MA.Size != r2.MA.Size || r1.MP.Size != r2.MP.Size ||
		r1.MA.SimPower != r2.MA.SimPower || r1.MP.SimPower != r2.MP.SimPower {
		t.Error("flow is not deterministic")
	}
}

func TestResynthesizeFlow(t *testing.T) {
	c := smallCircuit()
	plain, err := RunCircuit(c, Config{SimVectors: 1024})
	if err != nil {
		t.Fatal(err)
	}
	resyn, err := RunCircuit(c, Config{SimVectors: 1024, Resynthesize: true, MaxCollapseSupport: 12})
	if err != nil {
		t.Fatalf("resynthesis flow: %v", err)
	}
	if resyn.MA.Size <= 0 || resyn.MP.Size <= 0 {
		t.Fatal("resynthesis produced empty synthesis")
	}
	// Both flows synthesize the same functions; sizes may differ, power
	// must be positive in both.
	if plain.MA.SimPower <= 0 || resyn.MA.SimPower <= 0 {
		t.Error("missing measurements")
	}
}

func TestSynthesizeMPWithStrategy(t *testing.T) {
	c := gen.Frg1()
	net := Prepare(c.Net)
	// frg1 has 3 outputs: the default MP heuristic and the exact
	// branch-and-bound strategy both search a space the exhaustive scan
	// covers, so the strategy's estimate can never be worse.
	def, err := SynthesizeMP(net, Config{SimVectors: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SimVectors: 512, SearchStrategy: phase.StrategyBranchBound}
	bb, err := SynthesizeMP(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bb.EstPower > def.EstPower+1e-9 {
		t.Errorf("branch-and-bound MP estimate %v worse than heuristic %v", bb.EstPower, def.EstPower)
	}
}

func TestRunSequentialWithStrategy(t *testing.T) {
	c, err := gen.Sequential(gen.SeqParams{
		Name: "seqstrat", Inputs: 6, FFs: 8, Gates: 40, Seed: 29, TwinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunSequential(c, Config{SimVectors: 1024, SearchStrategy: phase.StrategyGreedy})
	if err != nil {
		t.Fatalf("RunSequential with greedy strategy: %v", err)
	}
	if row.MA.Size <= 0 || row.MP.Size <= 0 || row.MP.SimPower <= 0 {
		t.Errorf("malformed row: %+v", row)
	}
}
