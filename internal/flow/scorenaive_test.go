package flow

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
)

// TestScoreNaiveRowsPinned pins the rows of the naive scoring mode,
// which maps and estimates every candidate the MinPower heuristic tries:
// apex7, frg1 and x1, untimed and timed, under the default engine (Auto,
// which prices these twins correlation-free) and under the exact BDD
// engine, which builds a forest per candidate. Each row's MA/MP sizes
// and the bits of both power figures are pinned, so a change to how the
// estimator builds its BDDs that moved a single probability shows here.
func TestScoreNaiveRowsPinned(t *testing.T) {
	for _, tc := range []struct {
		c                          gen.NamedCircuit
		method                     power.Method
		timed                      bool
		maSize, mpSize             int
		maEst, mpEst, maSim, mpSim uint64
	}{
		{gen.Apex7(), power.Auto, false, 285, 334,
			0x40737d6a9e02aec4, 0x4072688e8c5547dd, 0x40735a0200000000, 0x40727c6a00000000},
		{gen.Apex7(), power.Auto, true, 1124, 1275,
			0x40737d6a9e02aec4, 0x4072688e8c5547dd, 0x40735a0200000000, 0x40727c6a00000000},
		{gen.Frg1(), power.Auto, false, 69, 73,
			0x405536f18bad43e9, 0x404ad21ce8a5782b, 0x40552aa400000000, 0x404af12800000000},
		{gen.Frg1(), power.Auto, true, 283, 326,
			0x405536f18bad43e9, 0x404ca89e244a8442, 0x40552aa400000000, 0x404cceeedb445ed2},
		{gen.X1(), power.Auto, false, 203, 212,
			0x4065cfb620e1ba6f, 0x4064233ca776acdd, 0x4065ccfe00000000, 0x40641cc400000000},
		{gen.X1(), power.Auto, true, 757, 770,
			0x4065cfb620e1ba6f, 0x4064233ca776acdd, 0x4065ccfe00000000, 0x40641cc400000000},
		{gen.Apex7(), power.Exact, false, 285, 320,
			0x407358d4b0000000, 0x4072812ef4000000, 0x40735a0200000000, 0x4072847800000000},
		{gen.Apex7(), power.Exact, true, 1124, 1227,
			0x407358d4b0000000, 0x4072812ef4000000, 0x40735a0200000000, 0x4072847800000000},
		{gen.Frg1(), power.Exact, false, 69, 73,
			0x4055259000000000, 0x404af4e000000000, 0x40552aa400000000, 0x404af12800000000},
		{gen.Frg1(), power.Exact, true, 283, 326,
			0x4055259000000000, 0x404cd4695054ac2a, 0x40552aa400000000, 0x404cceeedb445ed2},
		{gen.X1(), power.Exact, false, 203, 212,
			0x4065c98cdf300000, 0x40641b0eaab80000, 0x4065ccfe00000000, 0x40641cc400000000},
		{gen.X1(), power.Exact, true, 757, 770,
			0x4065c98cdf300000, 0x40641b0eaab80000, 0x4065ccfe00000000, 0x40641cc400000000},
	} {
		cfg := Config{PhaseScoring: ScoreNaive, EstOpts: power.Options{Method: tc.method}}
		run, kind := RunCircuit, "untimed"
		if tc.timed {
			run, kind = RunCircuitTimed, "timed"
		}
		row, err := run(tc.c, cfg)
		if err != nil {
			t.Fatalf("%s %s method %d: %v", tc.c.Name, kind, tc.method, err)
		}
		if row.MA.Size != tc.maSize || row.MP.Size != tc.mpSize {
			t.Errorf("%s %s method %d: MA/MP Size = %d/%d, want %d/%d", tc.c.Name, kind, tc.method, row.MA.Size, row.MP.Size, tc.maSize, tc.mpSize)
		}
		for _, p := range []struct {
			name string
			got  float64
			want uint64
		}{
			{"MA EstPower", row.MA.EstPower, tc.maEst},
			{"MP EstPower", row.MP.EstPower, tc.mpEst},
			{"MA SimPower", row.MA.SimPower, tc.maSim},
			{"MP SimPower", row.MP.SimPower, tc.mpSim},
		} {
			if bits := math.Float64bits(p.got); bits != p.want {
				t.Errorf("%s %s method %d: %s = %v (bits %#x), want bits %#x (%v)", tc.c.Name, kind, tc.method, p.name, p.got, bits, p.want, math.Float64frombits(p.want))
			}
		}
	}
}

// TestScoreNaiveParallelSearch runs the naive scorer under the search
// strategies that score candidates from Workers goroutines, with the
// exact engine building a BDD forest per candidate, and requires the
// row of Workers 1: the same assignments, sizes and power bits. Under
// `go test -race` it is the regression test for an estimator whose
// calls shared one BDD manager across those goroutines.
func TestScoreNaiveParallelSearch(t *testing.T) {
	c := gen.NamedCircuit{Name: "naivepar", Net: gen.Generate(gen.Params{Name: "naivepar", Inputs: 10, Outputs: 6, Gates: 60, Seed: 0x9A17E, OrProb: 0.6})}
	for _, strategy := range []phase.SearchStrategy{phase.StrategyGreedy, phase.StrategyExhaustive} {
		rows := make([]*Row, 2)
		for i, workers := range []int{1, 4} {
			cfg := Config{
				SimVectors: 1024, PhaseScoring: ScoreNaive, SearchStrategy: strategy, SearchRestarts: 8,
				EstOpts: power.Options{Method: power.Exact}, Workers: workers,
			}
			row, err := RunCircuit(c, cfg)
			if err != nil {
				t.Fatalf("%v workers %d: %v", strategy, workers, err)
			}
			rows[i] = row
		}
		for _, s := range []struct {
			name      string
			want, got *Synthesis
		}{{"MA", &rows[0].MA, &rows[1].MA}, {"MP", &rows[0].MP, &rows[1].MP}} {
			if !slices.Equal(s.got.Assignment, s.want.Assignment) || s.got.Size != s.want.Size {
				t.Errorf("%v %s at 4 workers: assignment %s size %d, want %s size %d", strategy, s.name, s.got.Assignment, s.got.Size, s.want.Assignment, s.want.Size)
			}
			if math.Float64bits(s.got.EstPower) != math.Float64bits(s.want.EstPower) || math.Float64bits(s.got.SimPower) != math.Float64bits(s.want.SimPower) {
				t.Errorf("%v %s at 4 workers: EstPower %v SimPower %v, want %v and %v", strategy, s.name, s.got.EstPower, s.got.SimPower, s.want.EstPower, s.want.SimPower)
			}
		}
	}
}
