package timing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/logic"
	"repro/internal/phase"
)

// resizeOracle, tightenOracle and improveOnceOracle are the resizing loop
// before the incremental sizer, kept as its reference oracle: every trial
// re-sums every load (RecomputeLoads) and re-analyzes the whole block,
// and a rejected trial re-sums every load again.
func resizeOracle(b *domino.Block, p Params, target float64) (*Analysis, int, error) {
	steps := 0
	const maxSteps = 100000
	a := Analyze(b, p)
	for a.Critical > target {
		if steps >= maxSteps {
			return a, steps, fmt.Errorf("timing: resize exceeded %d steps", maxSteps)
		}
		if !improveOnceOracle(b, p, &a) {
			return a, steps, fmt.Errorf("timing: cannot meet target %.3f (best %.3f)", target, a.Critical)
		}
		steps++
	}
	return a, steps, nil
}

func tightenOracle(b *domino.Block, p Params) (*Analysis, int) {
	steps := 0
	a := Analyze(b, p)
	for improveOnceOracle(b, p, &a) {
		steps++
	}
	return a, steps
}

func improveOnceOracle(b *domino.Block, p Params, a **Analysis) bool {
	type cand struct {
		ci   int
		gain float64
	}
	var cands []cand
	for _, node := range (*a).CriticalPath {
		ci := b.CellOf[node]
		if ci < 0 {
			continue
		}
		cell := &b.Cells[ci]
		if cell.Size*p.SizeStep > p.MaxSize {
			continue
		}
		before := CellDelay(cell, p)
		after := p.Intrinsic + p.LoadDelay*cell.Load/(cell.Size*p.SizeStep)
		if cell.Kind == logic.KindAnd {
			after += p.SeriesDelay * float64(cell.Width-1)
		}
		cost := cell.Area * cell.Size * (p.SizeStep - 1)
		if cost <= 0 {
			continue
		}
		cands = append(cands, cand{ci, (before - after) / cost})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	for _, c := range cands {
		old := b.Cells[c.ci].Size
		b.Cells[c.ci].Size *= p.SizeStep
		b.RecomputeLoads()
		na := Analyze(b, p)
		if na.Critical < (*a).Critical-1e-12 {
			*a = na
			return true
		}
		b.Cells[c.ci].Size = old
		b.RecomputeLoads()
	}
	return false
}

// sizingNet is a random multi-output network whose outputs can share a
// driver and whose gates can repeat a fanin, so loads sum over repeated
// pins and repeated output caps.
func sizingNet(rng *rand.Rand, numInputs, numGates, numOutputs int) *logic.Network {
	n := randomNet(rng, numInputs, numGates, numOutputs)
	for i := 0; i < 2; i++ {
		d := n.Outputs()[rng.Intn(n.NumOutputs())].Driver
		n.MarkOutput(tname(200+i), d)
	}
	a := logic.NodeID(rng.Intn(n.NumNodes()))
	n.MarkOutput("dup", n.AddOr(a, a, logic.NodeID(rng.Intn(n.NumNodes()))))
	return n
}

// sameSizing reports the first difference between two sized blocks and
// their analyses: a cell's Size or Load bits, the Critical bits, the
// critical output and path, or an arrival's bits.
func sameSizing(got, want *domino.Block, ga, wa *Analysis) error {
	for i := range want.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if math.Float64bits(g.Size) != math.Float64bits(w.Size) || math.Float64bits(g.Load) != math.Float64bits(w.Load) {
			return fmt.Errorf("cell %d: size %v load %v, want size %v load %v", i, g.Size, g.Load, w.Size, w.Load)
		}
	}
	if math.Float64bits(ga.Critical) != math.Float64bits(wa.Critical) || ga.CriticalOutput != wa.CriticalOutput {
		return fmt.Errorf("critical %v at output %d, want %v at %d", ga.Critical, ga.CriticalOutput, wa.Critical, wa.CriticalOutput)
	}
	if !slices.Equal(ga.CriticalPath, wa.CriticalPath) {
		return fmt.Errorf("critical path %v, want %v", ga.CriticalPath, wa.CriticalPath)
	}
	for i := range wa.Arrival {
		if math.Float64bits(ga.Arrival[i]) != math.Float64bits(wa.Arrival[i]) {
			return fmt.Errorf("node %d arrives at %v, want %v", i, ga.Arrival[i], wa.Arrival[i])
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSizerMatchesOracle compares the incremental sizer with the
// full-recompute oracle on random mapped blocks (random output phases,
// so inverter delays on both sides count) under the default delay
// model, a finer SizeStep and a low MaxSize, over the default library
// and one whose fractional capacitances make the load sums
// order-sensitive. Tighten is compared first; Resize then runs to a
// reachable target (halfway from the unsized delay to the tightened
// one) and to an unreachable one. Every cell's Size and Load bits, the
// analysis, the step counts and the error texts must agree.
func TestSizerMatchesOracle(t *testing.T) {
	fine := DefaultParams()
	fine.SizeStep = 1.05
	small := DefaultParams()
	small.MaxSize = 2
	fractional := domino.DefaultLibrary()
	fractional.WireCap, fractional.InputCap, fractional.OutputCap = 0.3, 1.1, 0.7
	rng := rand.New(rand.NewSource(0x51CE))
	var tightenSteps, resizeSteps, unmet int
	for trial := 0; trial < 40; trial++ {
		n := sizingNet(rng, 4+rng.Intn(10), 10+rng.Intn(120), 1+rng.Intn(5))
		asg := make(phase.Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		r, err := phase.Apply(n, asg)
		if err != nil {
			t.Fatal(err)
		}
		for li, lib := range []domino.Library{domino.DefaultLibrary(), fractional} {
			for pi, p := range []Params{DefaultParams(), fine, small} {
				fresh := func() *domino.Block {
					b, err := domino.Map(r, lib)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				name := fmt.Sprintf("trial %d lib %d params %d", trial, li, pi)
				got, want := fresh(), fresh()
				ga, gSteps := Tighten(got, p)
				wa, wSteps := tightenOracle(want, p)
				if gSteps != wSteps {
					t.Fatalf("%s: Tighten took %d steps, oracle %d", name, gSteps, wSteps)
				}
				if err := sameSizing(got, want, ga, wa); err != nil {
					t.Fatalf("%s: Tighten: %v", name, err)
				}
				tightenSteps += gSteps
				unsized := Analyze(fresh(), p).Critical
				for _, target := range []float64{(unsized + wa.Critical) / 2, wa.Critical * 0.9} {
					got, want := fresh(), fresh()
					ga, gSteps, gErr := Resize(got, p, target)
					wa, wSteps, wErr := resizeOracle(want, p, target)
					if gSteps != wSteps || errText(gErr) != errText(wErr) {
						t.Fatalf("%s: Resize to %v: %d steps, error %q; oracle %d steps, error %q", name, target, gSteps, gErr, wSteps, wErr)
					}
					if err := sameSizing(got, want, ga, wa); err != nil {
						t.Fatalf("%s: Resize to %v: %v", name, target, err)
					}
					resizeSteps += gSteps
					if gErr != nil {
						unmet++
					}
				}
			}
		}
	}
	if tightenSteps == 0 || resizeSteps == 0 || unmet == 0 {
		t.Errorf("weak sample: %d Tighten steps, %d Resize steps, %d unmet targets", tightenSteps, resizeSteps, unmet)
	}
	t.Logf("%d Tighten steps, %d Resize steps, %d unmet targets", tightenSteps, resizeSteps, unmet)
}

// TestSizingObeysCancelledToken: resizing polls Params.Budget before
// every trial, so under a cancelled token Tighten commits nothing and
// Resize returns the token's error (not "cannot meet target") with the
// block unsized.
func TestSizingObeysCancelledToken(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	r, err := phase.Apply(randomNet(rng, 8, 60, 3), phase.AllPositive(3))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Budget = budget.New(0, 0)
	p.Budget.Cancel(nil)
	b, err := domino.Map(r, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	unsized := Analyze(b, p).Critical
	if _, steps := Tighten(b, p); steps != 0 {
		t.Errorf("Tighten under a cancelled token took %d steps", steps)
	}
	a, steps, err := Resize(b, p, unsized/2)
	if !errors.Is(err, budget.ErrCancelled) || steps != 0 || a.Critical != unsized {
		t.Errorf("Resize under a cancelled token: %d steps to %v, err %v; want 0 steps and the cancellation", steps, a.Critical, err)
	}
	for i := range b.Cells {
		if b.Cells[i].Size != 1 {
			t.Fatalf("cell %d resized to %v under a cancelled token", i, b.Cells[i].Size)
		}
	}
}
