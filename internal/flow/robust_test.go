package flow

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/power"
)

// TestConfigValidate: the zero config and the defaults validate; every
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
		{"Workers", Config{Workers: -1}},
		{"SimShards", Config{SimShards: -1}},
		{"SimKernel", Config{SimKernel: 99}},
		{"SimBlockWords", Config{SimBlockWords: 1 << 20}},
		{"PhaseScoring", Config{PhaseScoring: 99}},
		{"SearchStrategy", Config{SearchStrategy: 99}},
		{"SearchRestarts", Config{SearchRestarts: -1}},
		{"AnnealSteps", Config{AnnealSteps: -1}},
		{"BDDNodeBudget", Config{BDDNodeBudget: -1}},
		{"SimVectorBudget", Config{SimVectorBudget: -1}},
		{"BDDReorder", Config{BDDReorder: 99}},
		{"BDDReorder", Config{BDDReorder: -1}},
		{"EstOpts.Method", Config{EstOpts: power.Options{Method: 99}}},
		{"EstOpts.Depth", Config{EstOpts: power.Options{Depth: -1}}},
		{"EstOpts.MaxFrontier", Config{EstOpts: power.Options{MaxFrontier: -1}}},
		{"EstOpts.MCVectors", Config{EstOpts: power.Options{MCVectors: -1}}},
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

// TestX4FrontierExactSifted is the exact-engine frontier gate: the x4
// twin (288 PIs) blows the 20000-node budget on its static variable
// order, and the reorder-and-retry stage must rescue it, ending the row
// exact-sifted rather than on a degraded engine. The config is the
// budgeted corpus one (exact engine, 24-pair MinPower cap).
func TestX4FrontierExactSifted(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("exact-BDD build of the 288-input x4 twin takes seconds (minutes under -race)")
	}
	c := gen.X4()
	if pis := c.Net.NumInputs(); pis != 288 {
		t.Fatalf("x4 twin has %d PIs, want 288", pis)
	}
	cfg := Config{
		SimVectors:    256,
		SimShards:     2,
		MaxPairs:      24,
		EstOpts:       power.Options{Method: power.Exact, Depth: 3, MaxFrontier: 8},
		BDDNodeBudget: 20000,
	}
	_, engine, trips, err := runCircuitDegraded(context.Background(), c, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if engine != EngineExactSifted {
		t.Errorf("x4 at budget 20000 ended on engine %q (%d trips), want %q", engine, trips, EngineExactSifted)
	}
}

// TestRetiredSimKernelValue: the retired wide kernel's wire value 1
// still validates, and it runs the blocked kernel, so its row is the
// default config's row.
func TestRetiredSimKernelValue(t *testing.T) {
	cfg := Config{SimVectors: 512, SimKernel: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("SimKernel 1 must validate, got %v", err)
	}
	want, err := RunCircuit(smallCircuit(), Config{SimVectors: 512})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCircuit(smallCircuit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SimKernel 1 row differs from the default row:\n%+v\nvs\n%+v", got, want)
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
