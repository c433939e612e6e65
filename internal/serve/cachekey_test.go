package serve

import (
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
	"repro/internal/sim"
	"repro/internal/timing"
)

var keyFile = []byte(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")

// keyPath is the submitted path the key tests hash keyFile under.
const keyPath = "t.blif"

func mustKey(t *testing.T, cfg flow.Config, timed bool, data []byte) [32]byte {
	t.Helper()
	k, err := CacheKey(cfg, timed, keyPath, data)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCanonicalCoversEveryConfigField is the totality gate: every
// flow.Config field must be classified as either semantic (part of the
// cache key) or pure wall-clock (erased by Canonical). Adding a field to
// flow.Config without deciding which it is fails this test — the
// decision is what keeps content addressing correct as the config
// grows.
func TestCanonicalCoversEveryConfigField(t *testing.T) {
	semantic := map[string]bool{
		"Lib": true, "InputProb": true, "SimVectors": true, "SimSeed": true,
		"EstOpts": true, "MaxPairs": true, "ExhaustiveLimit": true,
		"Timing": true, "Slack": true, "Resynthesize": true,
		"MaxCollapseSupport": true, "SimShards": true, "PhaseScoring": true,
		"SearchStrategy": true, "SearchRestarts": true, "SearchSeed": true,
		"AnnealSteps": true,
		// Budgets are semantic: tripping one changes which engine produced
		// the row (CorpusRow.Engine) and the row's values — deterministically.
		"BDDNodeBudget": true, "SimVectorBudget": true,
		// The reorder mode changes the variable order exact probabilities
		// are computed under and which degradation stage a budgeted row
		// lands on, so it is part of the key.
		"BDDReorder": true,
	}
	// Wall-clock knobs never change any result (the concurrency and
	// packing contracts in internal/README.md), so Canonical must erase
	// them — asserted field by field below.
	wallclock := map[string]bool{"Workers": true, "SimKernel": true, "SimBlockWords": true}

	typ := reflect.TypeOf(flow.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if semantic[name] == wallclock[name] {
			t.Errorf("flow.Config field %q is not classified as semantic or wall-clock: "+
				"decide whether it changes rows and update Canonical plus this test", name)
		}
	}
	canon := reflect.ValueOf(flow.Config{Workers: 7, SimKernel: sim.KernelBlocked, SimBlockWords: 4}.Canonical())
	for name := range wallclock {
		if !canon.FieldByName(name).IsZero() {
			t.Errorf("Canonical() keeps wall-clock field %q; the key would fragment on it", name)
		}
	}
}

// TestCacheKeyZeroVsDefault: the zero config and the explicitly
// spelled-out defaults are the same semantics, so they must share a key.
func TestCacheKeyZeroVsDefault(t *testing.T) {
	lib := domino.DefaultLibrary()
	tp := timing.DefaultParams()
	spelled := flow.Config{
		Lib:                &lib,
		InputProb:          0.5,
		SimVectors:         4096,
		ExhaustiveLimit:    12,
		Timing:             &tp,
		Slack:              1.25,
		MaxCollapseSupport: 14,
		SearchRestarts:     3,
		EstOpts:            power.Options{Depth: 4, MaxFrontier: 16},
	}
	if mustKey(t, flow.Config{}, false, keyFile) != mustKey(t, spelled, false, keyFile) {
		t.Error("zero config and spelled-out defaults key differently")
	}
}

// TestZeroAndSpelledDefaultsRunAlike: each engine default has one home,
// the package that applies it, and Canonical reads it from there. A
// zero knob and its spelled-out default must therefore share a key and
// run the same row — under the depth-weighted and Monte-Carlo engines
// and a greedy search too.
func TestZeroAndSpelledDefaultsRunAlike(t *testing.T) {
	twin := gen.Frg1()
	ld, mc := power.Options{Method: power.LimitedDepth}, power.Options{Method: power.MonteCarlo}
	for _, c := range []struct {
		knob          string
		zero, spelled flow.Config
	}{
		{"SimVectors", flow.Config{}, flow.Config{SimVectors: sim.DefaultVectors}},
		{"ExhaustiveLimit", flow.Config{SimVectors: 512}, flow.Config{SimVectors: 512, ExhaustiveLimit: phase.DefaultExhaustiveLimit}},
		{"EstOpts.Depth", flow.Config{SimVectors: 512, EstOpts: ld},
			flow.Config{SimVectors: 512, EstOpts: power.Options{Method: power.LimitedDepth, Depth: power.DefaultDepth}}},
		{"EstOpts.MaxFrontier", flow.Config{SimVectors: 512, EstOpts: ld},
			flow.Config{SimVectors: 512, EstOpts: power.Options{Method: power.LimitedDepth, MaxFrontier: prob.DefaultMaxFrontier}}},
		{"EstOpts.MCVectors", flow.Config{SimVectors: 512, EstOpts: mc},
			flow.Config{SimVectors: 512, EstOpts: power.Options{Method: power.MonteCarlo, MCVectors: prob.DefaultMCVectors}}},
		{"SearchRestarts", flow.Config{SimVectors: 512, SearchStrategy: phase.StrategyGreedy},
			flow.Config{SimVectors: 512, SearchStrategy: phase.StrategyGreedy, SearchRestarts: phase.DefaultRestarts}},
	} {
		if mustKey(t, c.zero, false, keyFile) != mustKey(t, c.spelled, false, keyFile) {
			t.Errorf("%s: zero and spelled-out default key differently", c.knob)
		}
		want, err := flow.RunCircuit(twin, c.zero)
		if err != nil {
			t.Fatalf("%s zero: %v", c.knob, err)
		}
		got, err := flow.RunCircuit(twin, c.spelled)
		if err != nil {
			t.Fatalf("%s spelled: %v", c.knob, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the spelled-out default runs another row:\n%+v\nvs\n%+v", c.knob, got, want)
		}
	}
}

// TestCacheKeyWallclockInvariant: knobs that by contract never change
// results must not fragment the key.
func TestCacheKeyWallclockInvariant(t *testing.T) {
	base := mustKey(t, flow.Config{}, false, keyFile)
	// The delay model's budget token is plumbing, kept out of JSON.
	tokened := timing.DefaultParams()
	tokened.Budget = budget.New(0, 0)
	for _, cfg := range []flow.Config{
		{Timing: &tokened},
		{Workers: 1}, {Workers: 8},
		// 1 and 2: the retired wide and scalar kernels' wire values.
		{SimKernel: 1}, {SimKernel: 2},
		{Workers: 3, SimKernel: 2},
		{SimKernel: sim.KernelBlocked, SimBlockWords: 4},
		{SimBlockWords: 8},
	} {
		if mustKey(t, cfg, false, keyFile) != base {
			t.Errorf("wall-clock variation %+v changed the key", cfg)
		}
	}
}

// TestCacheKeySemanticChanges: every semantic knob (and the flow
// selector, the submitted path and the file bytes) must move the key.
func TestCacheKeySemanticChanges(t *testing.T) {
	lib := domino.DefaultLibrary()
	lib.MaxSeries = 3
	tp := timing.DefaultParams()
	tp.Intrinsic = 2
	mutations := map[string]flow.Config{
		"InputProb":          {InputProb: 0.25},
		"SimVectors":         {SimVectors: 8192},
		"SimSeed":            {SimSeed: 1},
		"EstOpts.Method":     {EstOpts: power.Options{Method: power.Approximate}},
		"EstOpts.Depth":      {EstOpts: power.Options{Method: power.LimitedDepth, Depth: 6}},
		"MaxPairs":           {MaxPairs: 5},
		"ExhaustiveLimit":    {ExhaustiveLimit: 4},
		"Slack":              {Slack: 1.5},
		"Resynthesize":       {Resynthesize: true},
		"MaxCollapseSupport": {MaxCollapseSupport: 10},
		"SimShards":          {SimShards: 4},
		"PhaseScoring":       {PhaseScoring: flow.ScoreNaive},
		"SearchStrategy":     {SearchStrategy: phase.StrategyAnneal},
		"SearchRestarts":     {SearchRestarts: 9},
		"SearchSeed":         {SearchSeed: 42},
		"AnnealSteps":        {AnnealSteps: 100},
		"Lib":                {Lib: &lib},
		"Timing":             {Timing: &tp},
		"BDDNodeBudget":      {BDDNodeBudget: 5000},
		"SimVectorBudget":    {SimVectorBudget: 1024},
		"BDDReorder":         {BDDReorder: flow.ReorderOff},
		"EstOpts.MCVectors":  {EstOpts: power.Options{Method: power.MonteCarlo, MCVectors: 4096}},
		"EstOpts.MCSeed":     {EstOpts: power.Options{Method: power.MonteCarlo, MCSeed: 7}},
	}
	base := mustKey(t, flow.Config{}, false, keyFile)
	keys := map[[32]byte]string{base: "base"}
	for name, cfg := range mutations {
		k := mustKey(t, cfg, false, keyFile)
		if prev, dup := keys[k]; dup {
			t.Errorf("semantic change %q keys identically to %q", name, prev)
			continue
		}
		keys[k] = name
	}
	if k := mustKey(t, flow.Config{}, true, keyFile); keys[k] != "" {
		t.Error("timed flow selector does not change the key")
	}
	other := append(append([]byte{}, keyFile...), '\n')
	if k := mustKey(t, flow.Config{}, false, other); keys[k] != "" {
		t.Error("file bytes do not change the key")
	}
	for _, path := range []string{"t.pla", "u.blif", "dir/t.blif"} {
		k, err := CacheKey(flow.Config{}, false, path, keyFile)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("path %q keys identically to %q", path, prev)
			continue
		}
		keys[k] = "path " + path
	}
	// The path is length-prefixed: moving bytes between the path and
	// the file must move the key.
	k1, err1 := CacheKey(flow.Config{}, false, "a.blif", []byte("x"))
	k2, err2 := CacheKey(flow.Config{}, false, "a.blifx", nil)
	if err1 != nil || err2 != nil || k1 == k2 {
		t.Errorf("path/bytes boundary is ambiguous (%v, %v)", err1, err2)
	}
}

// TestCacheKeyCanonicalIdempotent: canonicalization is a projection —
// applying it twice (or submitting an already-canonical config) cannot
// move the key.
func TestCacheKeyCanonicalIdempotent(t *testing.T) {
	cfgs := []flow.Config{
		{},
		{SimVectors: 512, Workers: 4, SearchStrategy: phase.StrategyBranchBound},
		{InputProb: 0.3, SimShards: 2, EstOpts: power.Options{Method: power.Exact}},
	}
	for _, cfg := range cfgs {
		if mustKey(t, cfg, false, keyFile) != mustKey(t, cfg.Canonical(), false, keyFile) {
			t.Errorf("key(%+v) differs from key of its canonical form", cfg)
		}
	}
}
