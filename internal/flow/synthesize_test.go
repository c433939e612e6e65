package flow

import (
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/sim"
)

// synthesizer is one of the two top-level syntheses, named for
// failure messages.
type synthesizer struct {
	name string
	run  func(*logic.Network, Config) (*Synthesis, error)
	cfg  Config
}

// maMP lists the MA baseline and the MP search (the pairwise heuristic
// by default, or the given strategy) over a shared base config.
func maMP(base Config, strategies ...phase.SearchStrategy) []synthesizer {
	out := []synthesizer{{"MA", SynthesizeMA, base}, {"MP", SynthesizeMP, base}}
	for _, s := range strategies {
		cfg := base
		cfg.SearchStrategy = s
		out = append(out, synthesizer{"MP/" + s.String(), SynthesizeMP, cfg})
	}
	return out
}

// TestSynthesizeKernelInvariant pins the kernel contract at the top of
// the stack: swapping the blocked measurement engine for the scalar
// oracle must not change a single field of either synthesis, with the
// phase search and the simulator both sharded.
func TestSynthesizeKernelInvariant(t *testing.T) {
	net := Prepare(gen.Generate(gen.Params{Name: "kernreg", Inputs: 10, Outputs: 5, Gates: 60, Seed: 0xBEA7, OrProb: 0.6}))
	base := Config{SimVectors: 1500, SimSeed: 7, Workers: 4, SimShards: 4}
	for _, s := range maMP(base) {
		var want *Synthesis
		for _, k := range []sim.Kernel{sim.KernelScalar, sim.KernelAuto} {
			cfg := s.cfg
			cfg.SimKernel = k
			got, err := s.run(net, cfg)
			if err != nil {
				t.Fatalf("%s kernel=%d: %v", s.name, k, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s kernel=%d: synthesis drifted:\n%+v\nvs\n%+v", s.name, k, got, want)
			}
		}
	}
}

// TestSynthesizeWorkersInvariant pins the determinism contract at the
// top of the stack: for a fixed (SimSeed, SimVectors, SimShards) the
// Workers knob must not change a single field of the MA synthesis, the
// MP heuristic's, or the exhaustive MP search's. It also gives `go test
// -race` a multi-worker run of every parallel path to bite on.
func TestSynthesizeWorkersInvariant(t *testing.T) {
	net := Prepare(gen.Generate(gen.Params{Name: "detreg", Inputs: 10, Outputs: 5, Gates: 60, Seed: 0xDEE, OrProb: 0.6}))
	base := Config{SimVectors: 1024, SimSeed: 3, SimShards: 4}
	for _, s := range maMP(base, phase.StrategyExhaustive) {
		var want *Synthesis
		for _, workers := range []int{1, 2, 8} {
			cfg := s.cfg
			cfg.Workers = workers
			got, err := s.run(net, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", s.name, workers, err)
			}
			if got.Size <= 0 || got.SimPower <= 0 {
				t.Fatalf("%s workers=%d: size %d, measured %v", s.name, workers, got.Size, got.SimPower)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: synthesis drifted:\n%+v\nvs\n%+v", s.name, workers, got, want)
			}
		}
	}
}

// TestSynthesizeParallelRaceRegression drives both syntheses, and the
// exhaustive MP search, with a multi-worker pool and a sharded
// simulator. Its job is to give `go test -race` something to bite on:
// any shared-state hazard in the parallel phase search or the sharded
// simulator surfaces here.
func TestSynthesizeParallelRaceRegression(t *testing.T) {
	net := Prepare(gen.Generate(gen.Params{Name: "racereg", Inputs: 12, Outputs: 6, Gates: 80, Seed: 0xACE, OrProb: 0.65}))
	for _, s := range maMP(Config{SimVectors: 2048, Workers: 8, SimShards: 8}, phase.StrategyExhaustive) {
		got, err := s.run(net, s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got.Size <= 0 || got.SimPower <= 0 {
			t.Errorf("%s: size %d, measured %v", s.name, got.Size, got.SimPower)
		}
	}
}

// TestSynthesizeExhaustivePower: the default pairwise MP heuristic never
// beats the exhaustive MP optimum's estimate.
func TestSynthesizeExhaustivePower(t *testing.T) {
	net := Prepare(gen.Generate(gen.Params{Name: "tiny", Inputs: 8, Outputs: 3, Gates: 30, Seed: 3, OrProb: 0.7}))
	exh, err := SynthesizeMP(net, Config{SimVectors: 1024, SearchStrategy: phase.StrategyExhaustive})
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	mp, err := SynthesizeMP(net, Config{SimVectors: 1024})
	if err != nil {
		t.Fatalf("heuristic: %v", err)
	}
	if mp.EstPower < exh.EstPower-1e-9 {
		t.Errorf("heuristic (%v) beat exhaustive (%v): exhaustive search broken", mp.EstPower, exh.EstPower)
	}
}

// TestSynthesizeSearchStrategies: the exact MP strategies agree, and
// neither the pairwise heuristic nor annealing beats the exhaustive
// optimum's estimate.
func TestSynthesizeSearchStrategies(t *testing.T) {
	net := Prepare(gen.Generate(gen.Params{Name: "coretest", Inputs: 10, Outputs: 4, Gates: 50, Seed: 0xC04E, OrProb: 0.7}))
	mp := func(cfg Config) *Synthesis {
		t.Helper()
		cfg.SimVectors = 1024
		s, err := SynthesizeMP(net, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.SearchStrategy, err)
		}
		return s
	}
	exh := mp(Config{SearchStrategy: phase.StrategyExhaustive})
	if bb := mp(Config{SearchStrategy: phase.StrategyBranchBound}); bb.EstPower != exh.EstPower {
		t.Errorf("branch-and-bound estimate %v != exhaustive %v", bb.EstPower, exh.EstPower)
	}
	for _, cfg := range []Config{{}, {SearchStrategy: phase.StrategyAnneal, SearchSeed: 5, AnnealSteps: 400}} {
		if s := mp(cfg); s.EstPower < exh.EstPower-1e-9 {
			t.Errorf("%v estimate %v beat the exhaustive optimum %v", cfg.SearchStrategy, s.EstPower, exh.EstPower)
		}
	}
}

// TestSynthesizeLibraryOverride: Config.Lib reaches the mapper of both
// syntheses — no mapped cell exceeds the narrowed library's width.
func TestSynthesizeLibraryOverride(t *testing.T) {
	lib := domino.DefaultLibrary()
	lib.MaxSeries, lib.MaxParallel = 2, 2
	net := Prepare(smallCircuit().Net)
	for _, s := range maMP(Config{SimVectors: 256, Lib: &lib}) {
		got, err := s.run(net, s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, c := range got.Block.Cells {
			if c.Width > 2 {
				t.Fatalf("%s: library override ignored: width %d cell", s.name, c.Width)
			}
		}
	}
}
