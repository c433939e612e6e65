package power_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
)

// narrowLibrary caps every gate at two series and two parallel
// transistors, so mapping splits most gates into legalization trees.
func narrowLibrary() domino.Library {
	lib := domino.DefaultLibrary()
	lib.MaxSeries, lib.MaxParallel = 2, 2
	return lib
}

// TestAreaTableMatchesCellCount is the area table's oracle: its score of
// an assignment equals the mapped cell count of that assignment's block,
// exactly, on every mask up to 10 outputs and on 64 random masks beyond
// — over every known twin and 50 random networks, under the default
// library and a narrow one that forces legalization splits.
func TestAreaTableMatchesCellCount(t *testing.T) {
	type tc struct {
		name string
		net  *logic.Network
	}
	var cases []tc
	for _, c := range gen.KnownCircuits() {
		cases = append(cases, tc{c.Name, flow.Prepare(c.Net)})
	}
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 50; i++ {
		p := gen.Params{
			Name:    fmt.Sprintf("rnd%02d", i),
			Inputs:  4 + rng.Intn(12),
			Outputs: 1 + rng.Intn(14),
			Gates:   10 + rng.Intn(90),
			Seed:    rng.Int63(),
			OrProb:  0.2 + 0.6*rng.Float64(),
		}
		cases = append(cases, tc{p.Name, flow.Prepare(gen.Generate(p))})
	}
	for _, lib := range []struct {
		name string
		lib  domino.Library
	}{{"default", domino.DefaultLibrary()}, {"narrow", narrowLibrary()}} {
		for _, c := range cases {
			t.Run(lib.name+"/"+c.name, func(t *testing.T) {
				table, err := power.NewAreaTable(c.net, lib.lib)
				if err != nil {
					t.Fatalf("NewAreaTable: %v", err)
				}
				k := c.net.NumOutputs()
				masks := 64
				if k <= 10 {
					masks = 1 << uint(k)
				}
				r := rand.New(rand.NewSource(int64(k)))
				asg := make(phase.Assignment, k)
				for m := 0; m < masks; m++ {
					for i := range asg {
						if k <= 10 {
							asg[i] = m&(1<<uint(i)) != 0
						} else {
							asg[i] = r.Intn(2) == 1
						}
					}
					got, err := table.ScoreAssignment(asg)
					if err != nil {
						t.Fatalf("%s: ScoreAssignment: %v", asg, err)
					}
					res, err := phase.Apply(c.net, asg)
					if err != nil {
						t.Fatalf("%s: Apply: %v", asg, err)
					}
					b, err := domino.Map(res, lib.lib)
					if err != nil {
						t.Fatalf("%s: Map: %v", asg, err)
					}
					if want := float64(b.CellCount()); got != want {
						t.Fatalf("%s: area table %v != mapped cell count %v", asg, got, want)
					}
				}
			})
		}
	}
}

// TestAreaTableMapError pins that the area table reports Map's own error
// for an unusable library.
func TestAreaTableMapError(t *testing.T) {
	lib := domino.DefaultLibrary()
	lib.MaxSeries = 1
	_, err := power.NewAreaTable(sharedConeNet(), lib)
	if err == nil || err.Error() != "domino: library width limits must be >= 2" {
		t.Fatalf("NewAreaTable error = %v, want Map's width-limit error", err)
	}
}
