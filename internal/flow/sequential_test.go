package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sgraph"
)

func TestRunSequential(t *testing.T) {
	c, err := gen.Sequential(gen.SeqParams{
		Name: "seqflow", Inputs: 8, FFs: 10, Gates: 60, Seed: 17, TwinProb: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunSequential(c, Config{SimVectors: 2048})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if row.FFs != 10 {
		t.Errorf("FFs = %d, want 10", row.FFs)
	}
	if row.Cut <= 0 || row.Cut > 10 {
		t.Errorf("cut = %d", row.Cut)
	}
	if row.PseudoInputs != row.Cut {
		t.Errorf("pseudo inputs %d != cut %d", row.PseudoInputs, row.Cut)
	}
	if row.MA.Size <= 0 || row.MP.Size <= 0 {
		t.Errorf("sizes: MA %d MP %d", row.MA.Size, row.MP.Size)
	}
	if row.MP.Size < row.MA.Size {
		t.Errorf("MP size %d beat MA size %d", row.MP.Size, row.MA.Size)
	}
	if row.MA.SimPower <= 0 || row.MP.SimPower <= 0 {
		t.Errorf("powers: MA %v MP %v", row.MA.SimPower, row.MP.SimPower)
	}
	if row.MP.EstPower > row.MA.EstPower+1e-9 {
		t.Errorf("MP estimate %v worse than MA estimate %v", row.MP.EstPower, row.MA.EstPower)
	}
}

func TestRunSequentialDeterministic(t *testing.T) {
	mk := func() *Row {
		c, err := gen.Sequential(gen.SeqParams{
			Name: "det", Inputs: 6, FFs: 8, Gates: 40, Seed: 23, TwinProb: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		row, err := RunSequential(c, Config{SimVectors: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	a, b := mk(), mk()
	if a.MA.SimPower != b.MA.SimPower || a.MP.SimPower != b.MP.SimPower || a.Cut != b.Cut {
		t.Error("sequential flow is not deterministic")
	}
}

func TestRunSequentialAcyclic(t *testing.T) {
	// A feed-forward FF pipeline: empty cut, still synthesizable.
	c, err := gen.Sequential(gen.SeqParams{
		Name: "ff", Inputs: 6, FFs: 5, Gates: 30, Seed: 29, TwinProb: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunSequential(c, Config{SimVectors: 512})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if row.PseudoInputs != row.Cut {
		t.Errorf("pseudo inputs %d != cut %d", row.PseudoInputs, row.Cut)
	}
}

// latchedEntries is a corpus of n copies of a generated sequential
// circuit, written as latched BLIF.
func latchedEntries(t *testing.T, p gen.SeqParams, n int) []corpus.Entry {
	t.Helper()
	src, err := blif.WriteString(gen.SequentialModel(p))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]corpus.Entry, n)
	for i := range entries {
		entries[i] = corpus.Entry{Path: p.Name + ".blif", Name: p.Name, Format: corpus.FormatBLIF, Data: []byte(src)}
	}
	return entries
}

// seqRowKey renders the deterministic content of a sequential corpus
// row: engine, trips, partition sizes, and both syntheses' assignments,
// sizes and power bits.
func seqRowKey(t *testing.T, r *CorpusRow) string {
	t.Helper()
	if r.Err != "" || !r.Sequential {
		t.Fatalf("%s: no sequential row (error %q)", r.Name, r.Err)
	}
	s := r.Row
	return fmt.Sprintf("engine %q trips %d ffs %d cut %d pseudo %d | MA %v %d %x %x | MP %v %d %x %x",
		r.Engine, r.BudgetTrips, s.FFs, s.Cut, s.PseudoInputs,
		s.MA.Assignment, s.MA.Size, math.Float64bits(s.MA.EstPower), math.Float64bits(s.MA.SimPower),
		s.MP.Assignment, s.MP.Size, math.Float64bits(s.MP.EstPower), math.Float64bits(s.MP.SimPower))
}

// runLatched runs entries through RunCorpus at one worker count, for
// the corpus and each circuit alike, and requires every row to render
// as want (the first row when want is empty). It returns the row key.
func runLatched(t *testing.T, entries []corpus.Entry, base Config, workers int, want string) string {
	t.Helper()
	base.Workers = workers
	rows, err := RunCorpus(context.Background(), entries, CorpusConfig{Base: base, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got := seqRowKey(t, r)
		if want == "" {
			want = got
		}
		if got != want {
			t.Fatalf("workers %d, row %d:\n got %s\nwant %s", workers, r.Index, got, want)
		}
	}
	return want
}

// TestRunCorpusSequentialDeterministic: a latched model gives one row
// across repeated runs and at Workers 1 and 4. This model has two
// minimum-weight cuts with different rows, so any map-order dependence
// of the cut shows from run to run.
func TestRunCorpusSequentialDeterministic(t *testing.T) {
	entries := latchedEntries(t, gen.SeqParams{
		Name: "seq18", Inputs: 8, FFs: 16, Gates: 88, Seed: 18, TwinProb: 0.5,
	}, 4)
	want := ""
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 4} {
			want = runLatched(t, entries, Config{SimVectors: 256}, workers, want)
		}
	}
}

// TestSequentialSteadyStateTripsBudget: the steady state runs the
// stage's engine under the stage's token. Under the exact engine and a
// BDD node budget its block exceeds, the configured stage ends in the
// steady state with budget.ErrBDDNodes, and the row lands on a later
// chain stage — the same row, engine and trips at Workers 1 and 2.
func TestSequentialSteadyStateTripsBudget(t *testing.T) {
	entries := latchedEntries(t, gen.SeqParams{
		Name: "seqbudget", Inputs: 14, FFs: 16, Gates: 160, Seed: 2, TwinProb: 0.5,
	}, 2)
	c, err := corpus.Load(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SimVectors: 256, EstOpts: power.Options{Method: power.Exact}, BDDNodeBudget: 50}
	cfg.defaults()
	_, err = runSequential(c.Seq, cfg, cfg.token())
	if !errors.Is(err, budget.ErrBDDNodes) || !strings.HasPrefix(err.Error(), "flow: steady state: ") {
		t.Fatalf("configured stage: err = %v, want a steady-state BDD node budget trip", err)
	}
	want := runLatched(t, entries, cfg, 1, "")
	runLatched(t, entries, cfg, 2, want)
	if strings.HasPrefix(want, `engine ""`) || strings.Contains(want, "trips 0 ") {
		t.Errorf("row did not degrade: %s", want)
	}
}

// TestSequentialResynthesize: Config.Resynthesize reaches sequential
// rows — the partitioned block goes through prepare, resynthesis
// included. On the seed-18, 16-FF model it shrinks MA/MP from 23/39 to
// 15/23 cells, and under the approximate engine (which builds no BDD
// for the steady state) a 5-node BDD budget ends the stage in the
// collapse build. prepare keeps the block's inputs in place, so the
// steady state's block-input probabilities stay aligned.
func TestSequentialResynthesize(t *testing.T) {
	c, err := gen.Sequential(gen.SeqParams{Name: "seq18", Inputs: 8, FFs: 16, Gates: 88, Seed: 18, TwinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		resynthesize   bool
		maSize, mpSize int
	}{{false, 23, 39}, {true, 15, 23}} {
		row, err := RunSequential(c, Config{Resynthesize: tc.resynthesize})
		if err != nil {
			t.Fatalf("Resynthesize %v: %v", tc.resynthesize, err)
		}
		if row.MA.Size != tc.maSize || row.MP.Size != tc.mpSize {
			t.Errorf("Resynthesize %v: MA/MP Size = %d/%d, want %d/%d", tc.resynthesize, row.MA.Size, row.MP.Size, tc.maSize, tc.mpSize)
		}
	}
	cfg := Config{Resynthesize: true, BDDNodeBudget: 5, EstOpts: power.Options{Method: power.Approximate}}
	cfg.defaults()
	_, err = runSequential(c, cfg, cfg.token())
	if want := "flow: resynthesis: BDD node budget exceeded (max 5 nodes)"; err == nil || err.Error() != want {
		t.Errorf("5-node budget: err = %v, want %q", err, want)
	}
	part, err := c.Partition(c.Cut(sgraph.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	net, err := prepare(part.Block, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inputNames(net), inputNames(part.Block); !slices.Equal(got, want) {
		t.Errorf("prepared block inputs %v, want the partition's %v", got, want)
	}
}

func inputNames(n *logic.Network) []string {
	var names []string
	for _, id := range n.Inputs() {
		names = append(names, n.Node(id).Name)
	}
	return names
}
