package timing

import (
	"math/rand"
	"testing"

	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
)

func mapChain(t testing.TB, widths []int, kind logic.Kind) *domino.Block {
	t.Helper()
	n := logic.New("chain")
	var prev logic.NodeID
	var ins []logic.NodeID
	idx := 0
	for range widths {
		_ = idx
		break
	}
	for level, w := range widths {
		var fanins []logic.NodeID
		if level > 0 {
			fanins = append(fanins, prev)
		}
		for len(fanins) < w {
			ins = append(ins, n.AddInput(tname(idx)))
			idx++
			fanins = append(fanins, ins[len(ins)-1])
		}
		prev = n.AddGate(kind, fanins...)
	}
	n.MarkOutput("f", prev)
	r, err := phase.Apply(n, phase.AllPositive(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func tname(i int) string {
	return "t" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}

func TestAndSlowerThanOr(t *testing.T) {
	p := DefaultParams()
	and4 := mapChain(t, []int{4}, logic.KindAnd)
	or4 := mapChain(t, []int{4}, logic.KindOr)
	aAnd := Analyze(and4, p)
	aOr := Analyze(or4, p)
	if aAnd.Critical <= aOr.Critical {
		t.Errorf("AND4 (%v) should be slower than OR4 (%v): series stack", aAnd.Critical, aOr.Critical)
	}
}

func TestAnalyzeChainDepth(t *testing.T) {
	p := DefaultParams()
	b := mapChain(t, []int{2, 2, 2}, logic.KindOr)
	a := Analyze(b, p)
	// Three OR2 cells in a chain: two internal (load 1 = one consumer
	// pin) and the output cell (load OutputCap=1). Delay per cell =
	// 1 + 0.5*1/1 = 1.5; critical = 4.5.
	if !close(a.Critical, 4.5) {
		t.Errorf("chain critical = %v, want 4.5", a.Critical)
	}
	// Path = starting input plus the three OR cells.
	if len(a.CriticalPath) != 4 {
		t.Errorf("critical path length = %d, want 4", len(a.CriticalPath))
	}
}

func TestInverterDelaysCount(t *testing.T) {
	// A negative-phase output and an inverted input rail both add the
	// inverter delay.
	n := logic.New("inv")
	a := n.AddInput("a")
	b0 := n.AddInput("b")
	n.MarkOutput("f", n.AddAnd(n.AddNot(a), b0))
	r, err := phase.Apply(n, phase.Assignment{false})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	an := Analyze(blk, p)
	// One AND2 cell (delay 1+0.15+0.5=1.65) fed by an inverted rail
	// (arrival 0.5): critical = 2.15, no output inverter.
	if !close(an.Critical, 2.15) {
		t.Errorf("critical = %v, want 2.15", an.Critical)
	}
	rNeg, err := phase.Apply(n, phase.Assignment{true})
	if err != nil {
		t.Fatal(err)
	}
	blkNeg, err := domino.Map(rNeg, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	anNeg := Analyze(blkNeg, p)
	// Negative phase: block computes ā·b̄ complement = a + b̄... i.e. an
	// OR cell (no series penalty) fed by one inverted rail, plus the
	// output inverter: 0.5 + (1+0.5) + 0.5 = 2.5.
	if !close(anNeg.Critical, 2.5) {
		t.Errorf("negated critical = %v, want 2.5", anNeg.Critical)
	}
}

func TestResizeMeetsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	n := randomNet(rng, 8, 60, 3)
	r, err := phase.Apply(n, phase.AllPositive(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	before := Analyze(b, p)

	// Establish what is achievable on a sacrificial copy, then demand a
	// target halfway between that and the unsized delay.
	probe, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	best, tightenSteps := Tighten(probe, p)
	if best.Critical >= before.Critical {
		t.Fatalf("Tighten did not speed anything up: %v -> %v", before.Critical, best.Critical)
	}
	if tightenSteps == 0 {
		t.Fatal("Tighten improved with zero steps")
	}
	target := (best.Critical + before.Critical) / 2
	after, steps, err := Resize(b, p, target)
	if err != nil {
		t.Fatalf("Resize: %v (critical %v, target %v)", err, after.Critical, target)
	}
	if after.Critical > target {
		t.Errorf("resize missed target: %v > %v", after.Critical, target)
	}
	if steps == 0 {
		t.Error("resize claims success with zero steps from a failing start")
	}
}

func TestResizeIncreasesPowerAndArea(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	n := randomNet(rng, 8, 80, 3)
	probs := prob.Uniform(n, 0.5)
	r, err := phase.Apply(n, phase.AllPositive(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	estBefore, err := power.Estimate(b, probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	areaBefore := b.Area()
	if _, steps := Tighten(b, p); steps == 0 {
		t.Fatal("Tighten found nothing to improve")
	}
	estAfter, err := power.Estimate(b, probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if estAfter.Total <= estBefore.Total {
		t.Errorf("resizing should raise power: %v -> %v", estBefore.Total, estAfter.Total)
	}
	if b.Area() <= areaBefore {
		t.Errorf("resizing should raise area: %v -> %v", areaBefore, b.Area())
	}
}

func TestResizeImpossibleTarget(t *testing.T) {
	b := mapChain(t, []int{2, 2, 2, 2, 2}, logic.KindAnd)
	p := DefaultParams()
	if _, _, err := Resize(b, p, 0.01); err == nil {
		t.Error("Resize met an impossible target")
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func randomNet(rng *rand.Rand, numInputs, numGates, numOutputs int) *logic.Network {
	n := logic.New("rand")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(tname(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddAnd(pick(), pick(), pick()))
		case 2:
			ids = append(ids, n.AddOr(pick(), pick()))
		default:
			ids = append(ids, n.AddAnd(pick(), pick()))
		}
	}
	for i := 0; i < numOutputs; i++ {
		n.MarkOutput(tname(100+i), ids[len(ids)-1-i])
	}
	return n
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(97))
	n := randomNet(rng, 20, 1000, 8)
	r, err := phase.Apply(n, phase.AllPositive(8))
	if err != nil {
		b.Fatal(err)
	}
	blk, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(blk, p)
	}
}
