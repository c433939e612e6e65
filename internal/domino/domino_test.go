package domino

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/verify"
)

func mustApply(t testing.TB, n *logic.Network, asg phase.Assignment) *phase.Result {
	t.Helper()
	r, err := phase.Apply(n, asg)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return r
}

func figure5Network() *logic.Network {
	n := logic.New("fig5")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddOr(a, b)
	y := n.AddAnd(c, d)
	f := n.AddOr(n.AddNot(x), n.AddNot(y))
	g := n.AddOr(x, y)
	n.MarkOutput("f", f)
	n.MarkOutput("g", g)
	return n
}

func TestMapFigure5(t *testing.T) {
	n := figure5Network()
	r := mustApply(t, n, phase.Assignment{true, false})
	b, err := Map(r, DefaultLibrary())
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if got := b.DominoCellCount(); got != 4 {
		t.Errorf("domino cells = %d, want 4", got)
	}
	if got := b.InverterCount(); got != 1 {
		t.Errorf("inverters = %d, want 1", got)
	}
	if got := b.CellCount(); got != 5 {
		t.Errorf("cell count = %d, want 5", got)
	}
	h := widthHistogram(b)
	if h["or2"] != 2 || h["and2"] != 2 {
		t.Errorf("width histogram = %v, want 2×or2 + 2×and2", h)
	}
}

func TestMapRejectsInverters(t *testing.T) {
	n := logic.New("inv")
	a := n.AddInput("a")
	n.MarkOutput("f", n.AddNot(a))
	r := &phase.Result{Original: n, Block: n}
	if _, err := Map(r, DefaultLibrary()); err == nil {
		t.Error("Map accepted a block with inverters")
	}
}

func TestLegalizeWidths(t *testing.T) {
	n := logic.New("wide")
	var ins []logic.NodeID
	for i := 0; i < 10; i++ {
		ins = append(ins, n.AddInput(name(i)))
	}
	n.MarkOutput("wideAnd", n.AddAnd(ins...))
	n.MarkOutput("wideOr", n.AddOr(ins...))
	r := mustApply(t, n, phase.AllPositive(2))
	lib := DefaultLibrary() // 4-series, 8-parallel
	b, err := Map(r, lib)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for _, c := range b.Cells {
		limit := lib.MaxSeries
		if c.Kind == logic.KindOr {
			limit = lib.MaxParallel
		}
		if c.Width > limit {
			t.Errorf("cell %s%d exceeds limit %d", c.Kind, c.Width, limit)
		}
	}
	// Function must be preserved through legalization.
	if err := verify.Check(r.Block, b.Net); err != nil {
		t.Errorf("legalize changed function: %v", err)
	}
	// 10-input AND with 4-series: 10 -> 3 cells + root = ceil(10/4)=3 then
	// 3<=4 one root: 4 cells total for the AND tree.
	h := widthHistogram(b)
	if h["and4"] != 2 || h["and2"] != 1 || h["and3"] != 1 {
		t.Errorf("AND tree histogram = %v", h)
	}
}

func TestLoadsAndArea(t *testing.T) {
	n := figure5Network()
	r := mustApply(t, n, phase.Assignment{true, false})
	lib := DefaultLibrary()
	b, err := Map(r, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Block: X=a+b, Y=cd feed both f̄=X·Y and g=X+Y, so each has load
	// 2×InputCap. The outputs drive OutputCap each.
	for _, c := range b.Cells {
		nodeName := b.Net.Node(c.Node).Name
		isOutput := false
		for _, o := range b.Net.Outputs() {
			if o.Driver == c.Node {
				isOutput = true
			}
		}
		if isOutput {
			if c.Load != lib.OutputCap {
				t.Errorf("output cell load = %v, want %v", c.Load, lib.OutputCap)
			}
		} else {
			if c.Load != 2*lib.InputCap {
				t.Errorf("internal cell %q load = %v, want %v", nodeName, c.Load, 2*lib.InputCap)
			}
		}
	}
	// Area: 4 cells of width 2 (base 2 + 2) + 1 inverter = 4*4+1 = 17.
	if got := b.Area(); got != 17 {
		t.Errorf("Area = %v, want 17", got)
	}
}

func TestResizeAffectsLoads(t *testing.T) {
	n := figure5Network()
	r := mustApply(t, n, phase.Assignment{false, false})
	b, err := Map(r, DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	// Upsize the g-output cell; its drivers' loads must grow.
	var gCell int = -1
	for ci, c := range b.Cells {
		for _, o := range b.Net.Outputs() {
			if o.Name == "g" && o.Driver == c.Node {
				gCell = ci
			}
		}
	}
	if gCell < 0 {
		t.Fatal("no g cell")
	}
	loadsBefore := b.NodeLoads()
	b.Cells[gCell].Size = 2
	b.RecomputeLoads()
	loadsAfter := b.NodeLoads()
	grew := 0
	for _, f := range b.Net.Fanins(b.Cells[gCell].Node) {
		if loadsAfter[f] > loadsBefore[f] {
			grew++
		}
	}
	if grew != len(b.Net.Fanins(b.Cells[gCell].Node)) {
		t.Errorf("upsizing did not grow driver loads: %v -> %v", loadsBefore, loadsAfter)
	}
}

func TestAndPenalty(t *testing.T) {
	n := logic.New("pen")
	a := n.AddInput("a")
	b0 := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.MarkOutput("and4", n.AddAnd(a, b0, c, d))
	n.MarkOutput("or4", n.AddOr(a, b0, c, d))
	r := mustApply(t, n, phase.AllPositive(2))
	lib := DefaultLibrary()
	lib.AndPenalty = 0.2
	b, err := Map(r, lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range b.Cells {
		switch cell.Kind {
		case logic.KindAnd:
			if math.Abs(cell.Penalty-0.6) > 1e-12 {
				t.Errorf("AND4 penalty = %v, want 0.6", cell.Penalty)
			}
		case logic.KindOr:
			if cell.Penalty != 0 {
				t.Errorf("OR penalty = %v, want 0", cell.Penalty)
			}
		}
	}
}

func TestMapPreservesFunctionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := randomNet(rng, 3+rng.Intn(4), 10+rng.Intn(40), 2)
		asg := make(phase.Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		r := mustApply(t, n, asg)
		lib := DefaultLibrary()
		lib.MaxSeries = 2 + rng.Intn(3)
		lib.MaxParallel = 2 + rng.Intn(5)
		b, err := Map(r, lib)
		if err != nil {
			t.Fatalf("trial %d: Map: %v", trial, err)
		}
		if err := verify.Check(r.Block, b.Net); err != nil {
			t.Fatalf("trial %d: mapping changed function: %v", trial, err)
		}
		for _, c := range b.Cells {
			limit := lib.MaxSeries
			if c.Kind == logic.KindOr {
				limit = lib.MaxParallel
			}
			if c.Width > limit || c.Width < 1 {
				t.Fatalf("trial %d: illegal width %d", trial, c.Width)
			}
		}
	}
}

func randomNet(rng *rand.Rand, numInputs, numGates, numOutputs int) *logic.Network {
	n := logic.New("rand")
	var ids []logic.NodeID
	for i := 0; i < numInputs; i++ {
		ids = append(ids, n.AddInput(name(i)))
	}
	for g := 0; g < numGates; g++ {
		pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
		switch rng.Intn(5) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1:
			ids = append(ids, n.AddAnd(pick(), pick(), pick(), pick(), pick()))
		case 2:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 3:
			ids = append(ids, n.AddOr(pick(), pick(), pick()))
		default:
			ids = append(ids, n.AddOr(pick(), pick()))
		}
	}
	for i := 0; i < numOutputs; i++ {
		n.MarkOutput(name(100+i), ids[len(ids)-1-i])
	}
	return n
}

func name(i int) string {
	return "s" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}

func BenchmarkMap(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	n := randomNet(rng, 20, 1500, 10)
	asg := make(phase.Assignment, n.NumOutputs())
	r, err := phase.Apply(n, asg)
	if err != nil {
		b.Fatal(err)
	}
	lib := DefaultLibrary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(r, lib); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSharedDriverOutputLoads(t *testing.T) {
	// Two outputs driven by the same cell: the cell sees OutputCap twice.
	n := logic.New("shared")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g := n.AddAnd(a, b)
	n.MarkOutput("f1", g)
	n.MarkOutput("f2", g)
	r := mustApply(t, n, phase.AllPositive(2))
	lib := DefaultLibrary()
	blk, err := Map(r, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(blk.Cells))
	}
	if got, want := blk.Cells[0].Load, 2*lib.OutputCap; got != want {
		t.Errorf("shared driver load = %v, want %v", got, want)
	}
}

// widthHistogram returns cell counts keyed by (kind, width), a quick
// structural fingerprint of a mapping.
func widthHistogram(b *Block) map[string]int {
	h := make(map[string]int)
	for i := range b.Cells {
		h[fmt.Sprintf("%s%d", b.Cells[i].Kind, b.Cells[i].Width)]++
	}
	return h
}
