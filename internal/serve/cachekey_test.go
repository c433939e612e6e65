package serve

import (
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

var keyFile = []byte(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")

func mustKey(t *testing.T, cfg flow.Config, timed bool, data []byte) [32]byte {
	t.Helper()
	k, err := CacheKey(cfg, timed, data)
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
	canon := reflect.ValueOf(flow.Config{Workers: 7, SimKernel: sim.KernelScalar, SimBlockWords: 4}.Canonical())
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

// TestCacheKeyWallclockInvariant: knobs that by contract never change
// results must not fragment the key.
func TestCacheKeyWallclockInvariant(t *testing.T) {
	base := mustKey(t, flow.Config{}, false, keyFile)
	for _, cfg := range []flow.Config{
		{Workers: 1}, {Workers: 8},
		{SimKernel: 1}, {SimKernel: sim.KernelScalar}, // 1: the retired wide kernel's wire value
		{Workers: 3, SimKernel: sim.KernelScalar},
		{SimKernel: sim.KernelBlocked, SimBlockWords: 4},
		{SimBlockWords: 8},
	} {
		if mustKey(t, cfg, false, keyFile) != base {
			t.Errorf("wall-clock variation %+v changed the key", cfg)
		}
	}
}

// TestCacheKeySemanticChanges: every semantic knob (and the flow
// selector, and the file bytes) must move the key.
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
