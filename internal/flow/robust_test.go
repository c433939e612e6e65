package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

// TestConfigValidate: the zero config, the defaults, and delay models,
// annealing schedules and libraries within the bounds validate; every
// out-of-range field is rejected with an error naming that field.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate, got %v", err)
	}
	def := Config{}
	def.defaults()
	if err := def.Validate(); err != nil {
		t.Fatalf("default config must validate, got %v", err)
	}
	model := func(edit func(*timing.Params)) *timing.Params {
		p := timing.DefaultParams()
		edit(&p)
		return &p
	}
	lib := func(edit func(*domino.Library)) *domino.Library {
		l := domino.DefaultLibrary()
		edit(&l)
		return &l
	}
	for i, cfg := range []Config{
		// The sizer oracle test's model: 42 upsizings per cell.
		{Timing: model(func(p *timing.Params) { p.SizeStep, p.MaxSize = 1.05, 8 })},
		// 63 upsizings; all-zero delays; the largest MaxSize.
		{Timing: model(func(p *timing.Params) { p.SizeStep = 1.0333 })},
		{Timing: model(func(p *timing.Params) { p.Intrinsic, p.SeriesDelay, p.LoadDelay, p.InverterDelay = 0, 0, 0, 0 })},
		{Timing: model(func(p *timing.Params) { p.SizeStep, p.MaxSize = 2, timing.MaxSizeLimit })},
		// The annealing cap at the default 3 restarts (4 chains of 1<<22)
		// and at the most restarts.
		{SearchStrategy: phase.StrategyAnneal, AnnealSteps: phase.MaxAnnealProposals / 4},
		{SearchRestarts: phase.MaxRestarts, AnnealSteps: phase.MaxAnnealProposals / (phase.MaxRestarts + 1)},
		{SearchStrategy: phase.StrategyBranchBound},
		{PhaseScoring: ScoreNaive, SearchStrategy: phase.StrategyExhaustive},
		{Lib: lib(func(l *domino.Library) { l.MaxSeries, l.MaxParallel = 2, 2 })},
		{Lib: lib(func(l *domino.Library) { l.AndPenalty, l.WireCap, l.InputCap = 0.5, 0.25, 0 })},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config %d: %v", i, err)
		}
	}
	cases := []struct {
		field string
		cfg   Config
	}{
		{"InputProb", Config{InputProb: 1.5}},
		{"InputProb", Config{InputProb: -0.1}},
		{"SimVectors", Config{SimVectors: -1}},
		{"MaxPairs", Config{MaxPairs: -1}},
		{"ExhaustiveLimit", Config{ExhaustiveLimit: -1}},
		{"Slack", Config{Slack: -0.5}},
		{"MaxCollapseSupport", Config{MaxCollapseSupport: -1}},
		{"MaxCollapseSupport", Config{MaxCollapseSupport: 21}}, // past sop.MaxSupport
		{"Workers", Config{Workers: -1}},
		{"SimShards", Config{SimShards: -1}},
		{"SimShards", Config{SimShards: sim.MaxShards + 1}},
		{"SimKernel", Config{SimKernel: 99}},
		{"SimBlockWords", Config{SimBlockWords: 1 << 20}},
		{"PhaseScoring", Config{PhaseScoring: 99}},
		{"SearchStrategy", Config{SearchStrategy: 99}},
		{"SearchRestarts", Config{SearchRestarts: -1}},
		{"SearchRestarts", Config{SearchStrategy: phase.StrategyGreedy, SearchRestarts: phase.MaxRestarts + 1}},
		{"AnnealSteps", Config{AnnealSteps: -1}},
		{"AnnealSteps", Config{SearchStrategy: phase.StrategyAnneal, AnnealSteps: phase.MaxAnnealProposals/4 + 1}},
		{"AnnealSteps", Config{SearchStrategy: phase.StrategyAnneal, AnnealSteps: 1 << 62, SearchRestarts: phase.MaxRestarts}},
		// Branch-and-bound prunes with the cone table's prefix bounds.
		{"SearchStrategy", Config{PhaseScoring: ScoreNaive, SearchStrategy: phase.StrategyBranchBound}},
		// A partial library ({"Lib":{"MaxSeries":4}} on the wire).
		{"Lib.MaxParallel", Config{Lib: &domino.Library{MaxSeries: 4}}},
		{"Lib.MaxSeries", Config{Lib: &domino.Library{}}},
		{"Lib.MaxSeries", Config{Lib: lib(func(l *domino.Library) { l.MaxSeries = 1 })}},
		{"Lib.InputCap", Config{Lib: lib(func(l *domino.Library) { l.InputCap = -1 })}},
		{"Lib.AndPenalty", Config{Lib: lib(func(l *domino.Library) { l.AndPenalty = math.NaN() })}},
		{"Lib.BaseCellArea", Config{Lib: lib(func(l *domino.Library) { l.BaseCellArea = -2 })}},
		{"Lib.PerInputArea", Config{Lib: lib(func(l *domino.Library) { l.PerInputArea = math.Inf(1) })}},
		{"Lib.InverterArea", Config{Lib: lib(func(l *domino.Library) { l.InverterArea = -1 })}},
		{"Lib.WireCap", Config{Lib: lib(func(l *domino.Library) { l.WireCap = -0.5 })}},
		{"Lib.OutputCap", Config{Lib: lib(func(l *domino.Library) { l.OutputCap = math.Inf(-1) })}},
		{"BDDNodeBudget", Config{BDDNodeBudget: -1}},
		{"SimVectorBudget", Config{SimVectorBudget: -1}},
		{"BDDReorder", Config{BDDReorder: 99}},
		{"BDDReorder", Config{BDDReorder: -1}},
		{"EstOpts.Method", Config{EstOpts: power.Options{Method: 99}}},
		{"EstOpts.Depth", Config{EstOpts: power.Options{Depth: -1}}},
		{"EstOpts.MaxFrontier", Config{EstOpts: power.Options{MaxFrontier: -1}}},
		{"EstOpts.MCVectors", Config{EstOpts: power.Options{MCVectors: -1}}},
		{"Timing.Intrinsic", Config{Timing: model(func(p *timing.Params) { p.Intrinsic = -1 })}},
		{"Timing.Intrinsic", Config{Timing: model(func(p *timing.Params) { p.Intrinsic = math.NaN() })}},
		{"Timing.SeriesDelay", Config{Timing: model(func(p *timing.Params) { p.SeriesDelay = -0.15 })}},
		{"Timing.LoadDelay", Config{Timing: model(func(p *timing.Params) { p.LoadDelay = math.Inf(1) })}},
		{"Timing.InverterDelay", Config{Timing: model(func(p *timing.Params) { p.InverterDelay = -0.5 })}},
		// The zero model ({"Timing":{}} on the wire).
		{"Timing.MaxSize", Config{Timing: &timing.Params{}}},
		{"Timing.MaxSize", Config{Timing: model(func(p *timing.Params) { p.MaxSize = 0.5 })}},
		{"Timing.MaxSize", Config{Timing: model(func(p *timing.Params) { p.MaxSize = timing.MaxSizeLimit + 1 })}},
		{"Timing.MaxSize", Config{Timing: model(func(p *timing.Params) { p.MaxSize = math.NaN() })}},
		// The model that took x3's probe to 18,814 Tighten steps.
		{"Timing.MaxSize", Config{Timing: model(func(p *timing.Params) { p.SizeStep, p.MaxSize = 1.01, 1e6 })}},
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = 1 })}},
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = 0.5 })}},
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = math.Inf(1) })}},
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = math.NaN() })}},
		// 65 and 208 upsizings per cell.
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = 1.0324 })}},
		{"Timing.SizeStep", Config{Timing: model(func(p *timing.Params) { p.SizeStep = 1.01 })}},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("field %s: invalid config validated", c.field)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("field %s: error %q does not name the field", c.field, err)
		}
	}
}

// TestDegradeStages: the chain exists only when a BDD node budget is
// set, its shape is a pure function of the config, and the reorder mode
// controls whether the exact-sifted retry stage appears.
func TestDegradeStages(t *testing.T) {
	if got := degradeStages(Config{}); len(got) != 1 || got[0].engine != "" {
		t.Errorf("no budget should mean a single configured-engine stage, got %d stages", len(got))
	}
	cases := []struct {
		name string
		mode BDDReorderMode
		want []string
	}{
		{"auto", ReorderAuto, []string{"", EngineExactSifted, EngineDepthWeighted, EngineMonteCarlo}},
		{"always", ReorderAlways, []string{"", EngineDepthWeighted, EngineMonteCarlo}},
		{"off", ReorderOff, []string{"", EngineDepthWeighted, EngineMonteCarlo}},
	}
	for _, c := range cases {
		got := degradeStages(Config{BDDNodeBudget: 100, BDDReorder: c.mode})
		if len(got) != len(c.want) {
			t.Fatalf("%s: budgeted chain has %d stages, want %d", c.name, len(got), len(c.want))
		}
		for i, st := range got {
			if st.engine != c.want[i] {
				t.Errorf("%s: stage %d engine = %q, want %q", c.name, i, st.engine, c.want[i])
			}
		}
	}
	// The sifted stage arms reordering by rewriting the mode.
	st := degradeStages(Config{BDDNodeBudget: 100})[1]
	var cfg Config
	st.apply(&cfg)
	if cfg.BDDReorder != ReorderAlways {
		t.Errorf("exact-sifted stage rewrote BDDReorder to %d, want ReorderAlways", cfg.BDDReorder)
	}
}

// TestDegradationChainCompletes is the headline robustness property: a
// circuit whose exact-BDD probability engine blows the node budget still
// completes with a non-error row, the row records which fallback engine
// produced it, and the outcome is byte-identical across worker counts —
// degradation is deterministic, not a race artifact.
func TestDegradationChainCompletes(t *testing.T) {
	c := smallCircuit()
	base := Config{
		SimVectors:    256,
		EstOpts:       power.Options{Method: power.Exact},
		BDDNodeBudget: 8, // far below what exact BDDs for 12 inputs need
	}

	type outcome struct {
		row    *Row
		engine string
		trips  int
	}
	run := func(workers int) outcome {
		cfg := base
		cfg.Workers = workers
		row, engine, trips, err := runCircuitDegraded(context.Background(), c, cfg, false)
		if err != nil {
			t.Fatalf("workers=%d: degraded run failed: %v", workers, err)
		}
		return outcome{row, engine, trips}
	}

	first := run(1)
	if first.engine != EngineDepthWeighted && first.engine != EngineMonteCarlo {
		t.Fatalf("expected a fallback engine, got %q", first.engine)
	}
	if first.trips == 0 {
		t.Fatal("degraded run reports zero budget trips")
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.engine != first.engine || got.trips != first.trips {
			t.Errorf("workers=%d: engine/trips (%q, %d) differ from workers=1 (%q, %d)",
				workers, got.engine, got.trips, first.engine, first.trips)
		}
		if !reflect.DeepEqual(got.row, first.row) {
			t.Errorf("workers=%d: degraded row differs from workers=1:\n%+v\nvs\n%+v",
				workers, got.row, first.row)
		}
	}
}

// TestExactSiftedRescue: a circuit whose unsifted exact build blows the
// node budget but fits once the manager reorders itself lands on the
// exact-sifted stage — full-accuracy probabilities under a sifted
// variable order — and the rescued row is byte-identical across worker
// counts. Under ReorderOff the same circuit/budget degrades to
// depth-weighted, pinning down exactly what the new stage buys.
func TestExactSiftedRescue(t *testing.T) {
	c := gen.NamedCircuit{
		Name: "sifted", Desc: "Test",
		Net: gen.Generate(gen.Params{Name: "sifted", Inputs: 20, Outputs: 4, Gates: 100, Seed: 0x5AA11}),
	}
	base := Config{
		SimVectors:    256,
		EstOpts:       power.Options{Method: power.Exact},
		BDDNodeBudget: 200, // between the sifted and unsifted peak node counts
	}
	run := func(workers int, mode BDDReorderMode) (*Row, string, int) {
		cfg := base
		cfg.Workers = workers
		cfg.BDDReorder = mode
		row, engine, trips, err := runCircuitDegraded(context.Background(), c, cfg, false)
		if err != nil {
			t.Fatalf("workers=%d mode=%d: %v", workers, mode, err)
		}
		return row, engine, trips
	}
	row1, engine, trips := run(1, ReorderAuto)
	if engine != EngineExactSifted {
		t.Fatalf("engine = %q, want %q", engine, EngineExactSifted)
	}
	if trips != 1 {
		t.Errorf("trips = %d, want 1 (only the unsifted stage trips)", trips)
	}
	for _, workers := range []int{2, 8} {
		row, eng, tr := run(workers, ReorderAuto)
		if eng != engine || tr != trips {
			t.Errorf("workers=%d: engine/trips (%q, %d) differ from workers=1 (%q, %d)", workers, eng, tr, engine, trips)
		}
		if !reflect.DeepEqual(row, row1) {
			t.Errorf("workers=%d: rescued row differs from workers=1:\n%+v\nvs\n%+v", workers, row, row1)
		}
	}
	// Without reordering the same circuit/budget must degrade.
	_, offEngine, _ := run(1, ReorderOff)
	if offEngine != EngineDepthWeighted && offEngine != EngineMonteCarlo {
		t.Errorf("ReorderOff engine = %q, want a degraded engine", offEngine)
	}
}

// TestSiftedRescueSweep pins where the degradation chain ends over a
// sweep of small random circuits (seeds s = 1…60, 14–26 inputs, 80–320
// gates) and BDD node budgets from 100 to 12,000 under the exact
// engine: each row's engine and budget trips. It is the regression net
// for the auto-reorder schedule, which decides whether the exact-sifted
// stage rescues a row. Each cell is the engine's initial — E the
// configured exact engine, S exact-sifted, D depth-weighted, M
// Monte-Carlo — followed by the trips.
func TestSiftedRescueSweep(t *testing.T) {
	budgets := []int{100, 200, 400, 800, 1500, 3000, 6000, 12000}
	want := []string{
		"D2 D2 E0 E0 E0 E0 E0 E0", // s1
		"D2 S1 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"S1 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 S1 E0 E0 E0 E0",
		"D2 D2 S1 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0", // s10
		"M3 D2 S1 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 S1 E0 E0 E0 E0 E0 E0",
		"M3 D2 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 S1 E0 E0 E0 E0 E0 E0",
		"S1 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0", // s20
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 E0 E0 E0 E0 E0",
		"S1 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0", // s30
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 S1 E0 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"S1 E0 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"M3 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 D2 S1 S1 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0", // s40
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"M3 D2 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 S1 E0 E0 E0 E0 E0",
		"D2 D2 S1 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 E0 E0 E0 E0 E0",
		"M3 D2 E0 E0 E0 E0 E0 E0", // s50
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"E0 E0 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 D2 S1 E0 E0 E0",
		"M3 S1 E0 E0 E0 E0 E0 E0",
		"M3 S1 E0 E0 E0 E0 E0 E0",
		"D2 D2 E0 E0 E0 E0 E0 E0",
		"D2 D2 D2 S1 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0",
		"D2 E0 E0 E0 E0 E0 E0 E0", // s60
	}
	initial := map[string]string{
		"":                  "E",
		EngineExactSifted:   "S",
		EngineDepthWeighted: "D",
		EngineMonteCarlo:    "M",
	}
	cfg := Config{SimVectors: 64, Workers: 1, EstOpts: power.Options{Method: power.Exact}}
	for i, w := range want {
		s := i + 1
		name := fmt.Sprintf("s%d", s)
		c := gen.NamedCircuit{Name: name, Desc: "Test", Net: gen.Generate(gen.Params{
			Name: name, Inputs: 14 + 4*(s%4), Outputs: 4 + 2*(s%3), Gates: 80 + 60*(s%5), Seed: int64(7919 * s),
		})}
		cells := make([]string, len(budgets))
		for j, b := range budgets {
			cfg.BDDNodeBudget = b
			_, engine, trips, err := runCircuitDegraded(context.Background(), c, cfg, false)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, b, err)
			}
			cells[j] = fmt.Sprintf("%s%d", initial[engine], trips)
		}
		if got := strings.Join(cells, " "); got != w {
			t.Errorf("%s over budgets %v:\n got %s\nwant %s", name, budgets, got, w)
		}
	}
}

// TestX4FrontierExactSifted is the exact-engine frontier gate, run
// under the budgeted corpus config (exact engine, 20000-node BDD budget,
// 24-pair MinPower cap) at 256 vectors. The x4 twin (288 PIs) blows the
// budget on its static variable order, and the reorder-and-retry stage
// must rescue it, ending the row exact-sifted rather than on a degraded
// engine; Industry 2 and x3 trip the sifted stage as well and end
// depth-weighted. Each row's engine, budget trips, MA/MP sizes and the
// bits of both power figures are pinned: the sifted stage's orders,
// node counts and trips are pure functions of the BDD kernel's
// decisions, so a kernel change that moved one would show here.
func TestX4FrontierExactSifted(t *testing.T) {
	if testing.Short() {
		t.Skip("sifted exact-BDD builds of Industry 2, x3 and the 288-input x4 twin take seconds (~30 s under -race)")
	}
	if pis := gen.X4().Net.NumInputs(); pis != 288 {
		t.Fatalf("x4 twin has %d PIs, want 288", pis)
	}
	cfg := Config{
		SimVectors:    256,
		SimShards:     2,
		MaxPairs:      24,
		EstOpts:       power.Options{Method: power.Exact, Depth: 3, MaxFrontier: 8},
		BDDNodeBudget: 20000,
	}
	for _, tc := range []struct {
		c                          gen.NamedCircuit
		engine                     string
		trips                      int
		maSize, mpSize             int
		maEst, mpEst, maSim, mpSim uint64
	}{
		{gen.Industry2(), EngineDepthWeighted, 2, 1109, 1148,
			0x40921c81c021c742, 0x409370ef71841441, 0x4092151400000000, 0x40936c0400000000},
		{gen.X3(), EngineDepthWeighted, 2, 885, 905,
			0x408d715ecbb7822c, 0x408d5b13ca40a08a, 0x408d73e800000000, 0x408d58b000000000},
		{gen.X4(), EngineExactSifted, 1, 907, 937,
			0x408ed3d05912722b, 0x408efb087b910f14, 0x408ecac000000000, 0x408eea3000000000},
	} {
		t.Run(tc.c.Name, func(t *testing.T) {
			row, engine, trips, err := runCircuitDegraded(context.Background(), tc.c, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if engine != tc.engine || trips != tc.trips {
				t.Errorf("ended on engine %q after %d trips, want %q after %d", engine, trips, tc.engine, tc.trips)
			}
			if row.MA.Size != tc.maSize || row.MP.Size != tc.mpSize {
				t.Errorf("MA/MP Size = %d/%d, want %d/%d", row.MA.Size, row.MP.Size, tc.maSize, tc.mpSize)
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
					t.Errorf("%s = %v (bits %#x), want bits %#x (%v)", p.name, p.got, bits, p.want, math.Float64frombits(p.want))
				}
			}
		})
	}
}

// TestRetiredSimKernelValue: the retired wide and scalar kernels' wire
// values 1 and 2 still validate, and they run the blocked kernel, so
// their rows are the default config's row.
func TestRetiredSimKernelValue(t *testing.T) {
	want, err := RunCircuit(smallCircuit(), Config{SimVectors: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []sim.Kernel{1, 2} {
		cfg := Config{SimVectors: 512, SimKernel: k}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("SimKernel %d must validate, got %v", k, err)
		}
		got, err := RunCircuit(smallCircuit(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SimKernel %d row differs from the default row:\n%+v\nvs\n%+v", k, got, want)
		}
	}
}

// TestUntrippedBudgetIsInvisible: with budgets far above what the
// circuit needs, the degraded runner must produce exactly the row the
// plain flow produces — engine empty, zero trips. This is the guarantee
// that lets budgets default on without perturbing existing corpora.
func TestUntrippedBudgetIsInvisible(t *testing.T) {
	c := smallCircuit()
	cfg := Config{SimVectors: 256}

	plain, err := RunCircuit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.BDDNodeBudget = 1 << 30
	bcfg.SimVectorBudget = 1 << 30
	row, engine, trips, err := runCircuitDegraded(context.Background(), c, bcfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if engine != "" || trips != 0 {
		t.Errorf("untripped budget changed the engine: engine=%q trips=%d", engine, trips)
	}
	if !reflect.DeepEqual(row, plain) {
		t.Errorf("untripped budgeted row differs from the plain flow:\n%+v\nvs\n%+v", row, plain)
	}
}

// TestDirectEntryPointsHonourBudgets: RunCircuit and SynthesizeMA apply
// the configured budgets like RunCorpus — a 256-vector sim budget clamps
// a 4096-vector measurement to the row of a plain 256-vector run, and an
// exact build past the node budget comes back as a budget error.
func TestDirectEntryPointsHonourBudgets(t *testing.T) {
	c := smallCircuit()
	got, err := RunCircuit(c, Config{SimVectors: 4096, SimVectorBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCircuit(c, Config{SimVectors: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SimVectorBudget 256 row differs from the SimVectors 256 row:\n%+v\nvs\n%+v", got, want)
	}
	cfg := Config{SimVectors: 256, BDDNodeBudget: 8, EstOpts: power.Options{Method: power.Exact}}
	if _, err := SynthesizeMA(Prepare(c.Net), cfg); !errors.Is(err, budget.ErrBDDNodes) {
		t.Errorf("SynthesizeMA under an 8-node budget: err = %v, want ErrBDDNodes", err)
	}
}

// TestDegradedRunCancellation: a cancelled context beats the degradation
// chain — the run surfaces the cancellation instead of retrying cheaper
// engines forever.
func TestDegradedRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{SimVectors: 256, BDDNodeBudget: 8, EstOpts: power.Options{Method: power.Exact}}
	_, _, _, err := runCircuitDegraded(ctx, smallCircuit(), cfg, false)
	if err == nil {
		t.Fatal("cancelled degraded run returned no error")
	}
}
