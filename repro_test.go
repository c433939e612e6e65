// Root-level integration tests: the table-reproduction checks. These
// assert the *shape* of the paper's results — who wins, roughly by how
// much, and where the outliers sit — not absolute numbers, since the
// substrate is a simulator on synthetic benchmark twins (see the
// internal/gen package doc).
package repro_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
)

// TestTable1Reproduction runs the full untimed flow over all seven
// benchmark twins and checks the paper's qualitative claims.
func TestTable1Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 flow in -short mode")
	}
	rows, err := flow.RunTable1(flow.Config{SimVectors: 4096})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byName := map[string]*flow.Row{}
	for _, r := range rows {
		byName[r.Name] = r
		// MA is the area optimum of the pair in the untimed flow.
		if r.MP.Size < r.MA.Size {
			t.Errorf("%s: MP size %d beat MA size %d", r.Name, r.MP.Size, r.MA.Size)
		}
		// Sanity: both syntheses measured.
		if r.MA.SimPower <= 0 || r.MP.SimPower <= 0 {
			t.Errorf("%s: missing measurements", r.Name)
		}
	}
	areaPen, pwrSav := flow.Averages(rows)
	// Paper: average 18.0% saving at 11.8% area penalty. Shape check:
	// meaningful average savings at a modest area cost.
	if pwrSav < 5 {
		t.Errorf("average power saving %.1f%%, want >= 5%% (paper: 18.0%%)", pwrSav)
	}
	if areaPen < 0 || areaPen > 30 {
		t.Errorf("average area penalty %.1f%%, want 0..30%% (paper: 11.8%%)", areaPen)
	}
	// frg1: the paper's standout saver despite only 8 possible
	// assignments.
	if frg1 := byName["frg1"]; frg1.PowerSavingPct < 25 {
		t.Errorf("frg1 saving %.1f%%, want >= 25%% (paper: 34.1%%)", frg1.PowerSavingPct)
	}
	// The savings distribution is heterogeneous: at least one row near
	// zero or negative (paper: Industry 2 at -2.8%).
	low := false
	for _, r := range rows {
		if r.PowerSavingPct < 5 {
			low = true
		}
	}
	if !low {
		t.Error("expected at least one near-zero/negative row (paper: Industry 2)")
	}
}

// TestTable2Reproduction runs the timed flow over the four public twins.
func TestTable2Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 flow in -short mode")
	}
	rows, err := flow.RunTable2(flow.Config{SimVectors: 4096})
	if err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	_, pwrSav := flow.Averages(rows)
	// Paper: savings survive timing closure (35.3% average). Shape: the
	// average stays positive.
	if pwrSav <= 0 {
		t.Errorf("timed average power saving %.1f%%, want > 0 (paper: 35.3%%)", pwrSav)
	}
	for _, r := range rows {
		if !r.MA.MetTiming {
			t.Errorf("%s: MA missed its own slack-relaxed target", r.Name)
		}
		if r.MA.Critical <= 0 || r.MP.Critical <= 0 {
			t.Errorf("%s: missing timing analysis", r.Name)
		}
	}
}

// TestFlowParadigm is the Figure 6 integration test: the loop must
// produce functionally correct syntheses whose committed steps strictly
// reduce estimated power.
func TestFlowParadigm(t *testing.T) {
	c := gen.Frg1()
	net := flow.Prepare(c.Net)
	row, err := flow.RunCircuit(c, flow.Config{SimVectors: 2048})
	if err != nil {
		t.Fatalf("RunCircuit: %v", err)
	}
	for _, s := range []*flow.Synthesis{&row.MA, &row.MP} {
		res, err := phase.Apply(net, s.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := logic.EquivalentSampled(net, res.Reconstructed(), 4096, 1)
		if err != nil || !eq {
			t.Errorf("assignment %s broke functionality: %v %v", s.Assignment, eq, err)
		}
	}
	// Estimates and measurements must agree to simulator accuracy for the
	// exact engine (frg1 twin has 31 inputs, so Auto uses approximate;
	// allow generous tolerance).
	for _, s := range []*flow.Synthesis{&row.MA, &row.MP} {
		if s.SimPower <= 0 || s.EstPower <= 0 {
			t.Error("missing power numbers")
		}
		rel := (s.SimPower - s.EstPower) / s.SimPower
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.5 {
			t.Errorf("estimate %v vs sim %v diverge by %.0f%%", s.EstPower, s.SimPower, 100*rel)
		}
	}
}
