package flow_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
)

// mapCellCountEvaluator scores a phase result by mapped cell count — the
// MA objective, synthesized per candidate. It is the oracle of the MA
// search, which scores candidates from an area table instead.
func mapCellCountEvaluator(lib domino.Library) phase.Evaluator {
	return func(r *phase.Result) (float64, error) {
		b, err := domino.Map(r, lib)
		if err != nil {
			return 0, err
		}
		return float64(b.CellCount()), nil
	}
}

// loadtestPayload is dominod -loadtest's 24-PI/12-PO payload, whose MA
// search is a full 2^12 gray walk.
func loadtestPayload() *logic.Network {
	return gen.Generate(gen.Params{Name: "loadtest", Inputs: 24, Outputs: 12, Gates: 200, Seed: 0x10AD, OrProb: 0.6})
}

// TestSynthesizeMAMatchesEvalOracle is the MA search's differential
// oracle: SynthesizeMA returns the assignment and cell count of
// phase.MinArea scoring every candidate by Apply + Map, on random
// networks walked exhaustively (≤ 12 outputs) and by greedy descent
// (13–40 outputs), on three public twins and on the service payload, at
// one and two workers.
func TestSynthesizeMAMatchesEvalOracle(t *testing.T) {
	type tc struct {
		name string
		net  *logic.Network
	}
	cases := []tc{
		{"apex7", gen.Apex7().Net},
		{"frg1", gen.Frg1().Net},
		{"x1", gen.X1().Net},
		{"loadtest", loadtestPayload()},
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 12; i++ {
		outputs := 1 + rng.Intn(12)
		if i%2 == 1 {
			outputs = 13 + rng.Intn(28)
		}
		p := gen.Params{
			Name:    fmt.Sprintf("rnd%02d", i),
			Inputs:  6 + rng.Intn(14),
			Outputs: outputs,
			Gates:   outputs*4 + rng.Intn(80),
			Seed:    rng.Int63(),
			OrProb:  0.3 + 0.4*rng.Float64(),
		}
		cases = append(cases, tc{fmt.Sprintf("%s/k%d", p.Name, outputs), gen.Generate(p)})
	}
	lib := domino.DefaultLibrary()
	for _, c := range cases {
		net := flow.Prepare(c.net)
		for _, workers := range []int{1, 2} {
			syn, err := flow.SynthesizeMA(net, flow.Config{SimVectors: 64, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: SynthesizeMA: %v", c.name, workers, err)
			}
			asg, res, _, err := phase.MinArea(net, phase.SearchOptions{
				Eval: mapCellCountEvaluator(lib), Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: oracle MinArea: %v", c.name, workers, err)
			}
			b, err := domino.Map(res, lib)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(syn.Assignment, asg) || syn.Size != b.CellCount() {
				t.Errorf("%s workers=%d: MA (%s, %d cells) != oracle (%s, %d cells)",
					c.name, workers, syn.Assignment, syn.Size, asg, b.CellCount())
			}
		}
	}
}

// TestMAExhaustiveCeiling: an ExhaustiveLimit past 20 outputs does not
// open a 2^k MA walk — wide24 under ExhaustiveLimit 24 is the error row
// it has always been.
func TestMAExhaustiveCeiling(t *testing.T) {
	rows, err := flow.RunCorpus(context.Background(), []corpus.Entry{memEntry(t, "wide24", gen.Wide24().Net)},
		flow.CorpusConfig{Base: flow.Config{ExhaustiveLimit: 24, SimVectors: 64}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const want = "wide24: flow: MinArea: phase: exhaustive search over 24 outputs is infeasible"
	if r := rows[0]; r.Row != nil || r.TimedOut || r.Err != want {
		t.Fatalf("row %+v, want error row %q", r, want)
	}
}

// BenchmarkSynthesizeMA times the MA baseline — search plus one
// measurement — on Industry 3 (greedy descent over 16 outputs) and the
// service payload (the 2^12 gray walk), single-worker.
func BenchmarkSynthesizeMA(b *testing.B) {
	for _, c := range []struct {
		name string
		net  *logic.Network
	}{
		{"industry3", gen.Industry3().Net},
		{"loadtest", loadtestPayload()},
	} {
		net := flow.Prepare(c.net)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := flow.SynthesizeMA(net, flow.Config{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
