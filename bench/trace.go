package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

// The traced run rebuilds every corpus row outside the flow package, from
// the same public layer calls flow.RunCorpus makes internally, so each
// call can be timed and counted: parse (corpus.Load), prepare, the MA
// search, the cone table, the MinPower search, and per synthesis the
// domino mapping, the power estimate, the Monte-Carlo simulation and the
// timing analysis (plus resizing in the timed flow), all under a
// bench-side copy of the degradation chain. This composition mirrors
// internal/flow (flow.go, robust.go) and must produce the production
// rows bit for bit; traceEntries fails the run when it does not, so a
// change to the flow's composition cannot silently skew the per-layer
// numbers. An in-program tracer would replace it.

// span is one timed interval of a traced run: a row, a
// degradation-chain stage within the row, or a layer call. Spans of one
// row share its row index; parent links a span to the one enclosing it
// (0 for rows).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Row     int     `json:"row"`
	Circuit string  `json:"circuit"`
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

// tracer holds a traced run's spans (kept in memory until the run ends)
// and the per-layer totals.
type tracer struct {
	epoch  time.Time
	spans  []span
	row    int
	name   string // circuit of the current row
	parent int    // span enclosing the next layer call

	busy, alloc map[string]float64 // per layer: seconds, MB allocated
	stageSecs   map[string]float64 // per chain stage: seconds
	counts      map[string]float64
	maEvals     atomic.Int64 // the MA evaluator may run on several workers
	gateEvals   int64
	gateSkips   int64
	rowSecs     float64 // summed row spans
	wastedSecs  float64 // chain stages whose work was discarded
	stagesRun   int
	rowsDone    int
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		busy:      make(map[string]float64),
		alloc:     make(map[string]float64),
		stageSecs: make(map[string]float64),
		counts:    make(map[string]float64),
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation of the process.
// runtime/metrics reads it without stopping the world, so sampling it
// around every layer call costs little.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// open starts a span and returns its index.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Row: t.row, Circuit: t.name,
		Name: name, StartS: time.Since(t.epoch).Seconds(),
	})
	return len(t.spans) - 1
}

// close ends the span at index i and returns its duration in seconds.
func (t *tracer) close(i int) float64 {
	t.spans[i].EndS = time.Since(t.epoch).Seconds()
	return t.spans[i].EndS - t.spans[i].StartS
}

// call runs one layer call as a span under the current parent,
// accumulating its time and allocation into the layer's totals.
func (t *tracer) call(layer string, f func() error) error {
	a0 := heapAllocBytes()
	i := t.open(layer, t.parent)
	err := f()
	d := t.close(i)
	mb := float64(heapAllocBytes()-a0) / (1 << 20)
	t.spans[i].AllocMB = mb
	t.busy[layer] += d
	t.alloc[layer] += mb
	return err
}

// chainStage is one rung of the bench-side copy of the flow's
// degradation chain (flow/robust.go, degradeStages).
type chainStage struct {
	metric, engine string
	apply          func(*flow.Config)
}

func degradeChain(cfg flow.Config) []chainStage {
	stages := []chainStage{{metric: "configured"}}
	if cfg.BDDNodeBudget > 0 {
		if cfg.BDDReorder == flow.ReorderAuto {
			stages = append(stages, chainStage{"exact_sifted", flow.EngineExactSifted,
				func(c *flow.Config) { c.BDDReorder = flow.ReorderAlways }})
		}
		stages = append(stages,
			chainStage{"depth_weighted", flow.EngineDepthWeighted,
				func(c *flow.Config) { c.EstOpts.Method = power.LimitedDepth }},
			chainStage{"monte_carlo", flow.EngineMonteCarlo,
				func(c *flow.Config) { c.EstOpts.Method = power.MonteCarlo }},
		)
	}
	return stages
}

// runConfig completes a configuration as the flow does before running
// it. Canonical fills every default (the repository guarantees that equal
// canonical forms give bit-identical rows); the wall-clock knobs it
// erases are restored so the traced run keeps the production worker
// count.
func runConfig(base flow.Config) flow.Config {
	c := base.Canonical()
	c.Workers, c.SimKernel, c.SimBlockWords = base.Workers, base.SimKernel, base.SimBlockWords
	return c
}

// estOptions mirrors the flow's estimator options: the stage's budget
// token, and reordering derived from BDDReorder.
func estOptions(c flow.Config, tok *budget.T) power.Options {
	o := c.EstOpts
	o.Budget = tok
	o.Reorder = c.BDDReorder == flow.ReorderAlways
	return o
}

func uniformProbs(n *logic.Network, p float64) []float64 {
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = p
	}
	return probs
}

// runEntry rebuilds one corpus row: parse, then the degradation chain,
// each stage under a fresh budget token.
func (t *tracer) runEntry(index int, e corpus.Entry, base flow.Config, timed bool) (*flow.CorpusRow, error) {
	t.row, t.name = index, e.Name
	row := &flow.CorpusRow{Index: index, Name: e.Name, Path: e.Path, Format: e.Format.String()}
	ri := t.open("row", 0)
	defer func() { t.rowSecs += t.close(ri) }()
	t.parent = t.spans[ri].ID

	var c *corpus.Circuit
	if err := t.call("corpus.load", func() (err error) {
		c, err = corpus.Load(e)
		return err
	}); err != nil {
		return nil, err
	}
	if c.Seq != nil {
		return nil, fmt.Errorf("the traced run does not cover sequential circuits")
	}
	cfg := runConfig(base)
	var err error
	for _, st := range degradeChain(cfg) {
		scfg := cfg
		if st.apply != nil {
			st.apply(&scfg)
		}
		tok := budget.New(scfg.BDDNodeBudget, scfg.SimVectorBudget)
		si := t.open("flow.chain."+st.metric, t.spans[ri].ID)
		t.parent = t.spans[si].ID
		var r *flow.Row
		r, err = t.circuit(c.Named, scfg, tok, timed)
		d := t.close(si)
		t.parent = t.spans[ri].ID
		t.stageSecs[st.metric] += d
		t.stagesRun++
		row.BudgetTrips += tok.Trips()
		if err == nil {
			row.Row, row.Engine = r, st.engine
			t.rowsDone++
			t.counts["budget.trips"] += float64(row.BudgetTrips)
			if st.engine == flow.EngineDepthWeighted || st.engine == flow.EngineMonteCarlo {
				t.counts["flow.degraded_rows"]++
			}
			return row, nil
		}
		t.wastedSecs += d
		if !errors.Is(err, budget.ErrBDDNodes) {
			break
		}
	}
	return nil, err
}

// circuit is flow.runCircuit / runCircuitTimed.
func (t *tracer) circuit(c gen.NamedCircuit, cfg flow.Config, tok *budget.T, timed bool) (*flow.Row, error) {
	if cfg.Resynthesize {
		return nil, fmt.Errorf("the traced run does not cover Resynthesize")
	}
	var net *logic.Network
	t.call("flow.prepare", func() error {
		net = flow.Prepare(c.Net)
		return nil
	})
	ma, err := t.synthMA(net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	mp, err := t.synthMP(net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	if timed {
		if err := t.resize(net, cfg, tok, ma, mp); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	row := &flow.Row{
		Name: c.Name, Desc: c.Desc,
		PIs: c.Net.NumInputs(), POs: c.Net.NumOutputs(),
		MA: *ma, MP: *mp,
		PaperAreaPenaltyPct: c.PaperAreaPen,
		PaperPowerSavingPct: c.PaperPwrSav,
	}
	if ma.Size > 0 {
		row.AreaPenaltyPct = 100 * float64(mp.Size-ma.Size) / float64(ma.Size)
	}
	if ma.SimPower > 0 {
		row.PowerSavingPct = 100 * (ma.SimPower - mp.SimPower) / ma.SimPower
	}
	return row, nil
}

// synthMA is flow.synthesizeMA: the MinArea search scored by mapped cell
// count. The evaluator is wrapped to count the candidates it scores; its
// domino.Map calls count as search time.
func (t *tracer) synthMA(net *logic.Network, cfg flow.Config, tok *budget.T) (*flow.Synthesis, error) {
	lib := *cfg.Lib
	eval := func(r *phase.Result) (float64, error) {
		t.maEvals.Add(1)
		b, err := domino.Map(r, lib)
		if err != nil {
			return 0, err
		}
		return float64(b.CellCount()), nil
	}
	var asg phase.Assignment
	var res *phase.Result
	if err := t.call("phase.ma_search", func() (err error) {
		asg, res, _, err = phase.MinArea(net, phase.SearchOptions{
			ExhaustiveLimit: cfg.ExhaustiveLimit,
			Eval:            eval,
			Workers:         cfg.Workers,
			Budget:          tok,
		})
		return err
	}); err != nil {
		return nil, fmt.Errorf("MinArea: %w", err)
	}
	return t.finish(asg, res, net, cfg, tok)
}

// synthMP is flow.synthesizeMP: the cone table (unless ScoreNaive), the
// MinPower search, then the shared finish.
func (t *tracer) synthMP(net *logic.Network, cfg flow.Config, tok *budget.T) (*flow.Synthesis, error) {
	probs := uniformProbs(net, cfg.InputProb)
	popts := phase.PowerOptions{
		InputProbs:     probs,
		MaxPairs:       cfg.MaxPairs,
		Strategy:       cfg.SearchStrategy,
		SearchWorkers:  cfg.Workers,
		SearchSeed:     cfg.SearchSeed,
		SearchRestarts: cfg.SearchRestarts,
		AnnealSteps:    cfg.AnnealSteps,
		Budget:         tok,
	}
	if cfg.PhaseScoring == flow.ScoreNaive {
		popts.Evaluate = power.NewEstimator(*cfg.Lib, probs, estOptions(cfg, tok)).Evaluate
	} else {
		var table *power.ConeTable
		if err := t.call("power.cone_table", func() (err error) {
			table, err = power.NewConeTable(net, *cfg.Lib, probs, estOptions(cfg, tok))
			return err
		}); err != nil {
			return nil, fmt.Errorf("cone table: %w", err)
		}
		t.counts["power.cone_groups"] += float64(table.Groups())
		popts.Scorer = table
	}
	var asg phase.Assignment
	var res *phase.Result
	var est float64
	var steps []phase.Step
	if err := t.call("phase.mp_search", func() (err error) {
		asg, res, est, steps, err = phase.MinPower(net, popts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("MinPower: %w", err)
	}
	t.countSteps(steps)
	s, err := t.finish(asg, res, net, cfg, tok)
	if err != nil {
		return nil, err
	}
	s.EstPower = est
	return s, nil
}

// countSteps derives the MinPower work counters from its step trace.
// Every candidate pair is retired by exactly one step, so the initial
// ranking covers len(steps) pairs, and the re-ranking after a commit at
// step k covers the len(steps)-k-1 pairs still live; each pair is ranked
// in its four phase combinations. Retain-retain steps are not scored.
func (t *tracer) countSteps(steps []phase.Step) {
	if len(steps) == 0 {
		return
	}
	pairs := len(steps)
	ranked := pairs
	for k, s := range steps {
		if s.Combo != phase.RetainRetain {
			t.counts["phase.mp_trials"]++
		}
		if s.Committed {
			t.counts["phase.mp_commits"]++
			ranked += pairs - k - 1
		}
	}
	t.counts["phase.mp_rank_cands"] += float64(4 * ranked)
}

// finish is flow.finishSynthesis: map, estimate, simulate, analyze.
func (t *tracer) finish(asg phase.Assignment, res *phase.Result, net *logic.Network, cfg flow.Config, tok *budget.T) (*flow.Synthesis, error) {
	var b *domino.Block
	if err := t.call("domino.map", func() (err error) {
		b, err = domino.Map(res, *cfg.Lib)
		return err
	}); err != nil {
		return nil, fmt.Errorf("Map: %w", err)
	}
	t.counts["domino.cells"] += float64(b.CellCount())
	probs := uniformProbs(net, cfg.InputProb)
	est, err := t.estimate(b, cfg, probs, tok)
	if err != nil {
		return nil, err
	}
	rep, err := t.simulate(b, cfg, probs, tok)
	if err != nil {
		return nil, err
	}
	var a *timing.Analysis
	t.call("timing", func() error {
		a = timing.Analyze(b, *cfg.Timing)
		return nil
	})
	return &flow.Synthesis{
		Assignment: asg,
		Block:      b,
		Size:       b.CellCount(),
		EstPower:   est.Total,
		SimPower:   rep.Total,
		Critical:   a.Critical,
		MetTiming:  true,
	}, nil
}

func (t *tracer) estimate(b *domino.Block, cfg flow.Config, probs []float64, tok *budget.T) (*power.Report, error) {
	var est *power.Report
	err := t.call("power.estimate", func() (err error) {
		est, err = power.Estimate(b, probs, estOptions(cfg, tok))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Estimate: %w", err)
	}
	return est, nil
}

func (t *tracer) simulate(b *domino.Block, cfg flow.Config, probs []float64, tok *budget.T) (*sim.Report, error) {
	var st sim.KernelStats
	var rep *sim.Report
	err := t.call("sim.run", func() (err error) {
		rep, err = sim.Run(b, sim.Config{
			Vectors: cfg.SimVectors, Seed: cfg.SimSeed, InputProbs: probs,
			Shards: cfg.SimShards, Workers: cfg.Workers, Kernel: cfg.SimKernel,
			BlockWords: cfg.SimBlockWords, Budget: tok, Stats: &st,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	t.gateEvals += st.GateEvals
	t.gateSkips += st.GateSkips
	return rep, nil
}

// resize is the Table 2 tail of flow.runCircuitTimed: derive the clock
// target from the fastest MA implementation, then resize, re-simulate
// and re-estimate both syntheses.
func (t *tracer) resize(net *logic.Network, cfg flow.Config, tok *budget.T, ma, mp *flow.Synthesis) error {
	var target float64
	// The probe (the MA assignment applied, mapped and tightened) only
	// derives the clock target, so it counts as timing work.
	if err := t.call("timing", func() error {
		maRes, err := phase.Apply(net, ma.Assignment)
		if err != nil {
			return err
		}
		probe, err := domino.Map(maRes, *cfg.Lib)
		if err != nil {
			return err
		}
		best, _ := timing.Tighten(probe, *cfg.Timing)
		target = timing.TargetFromBaseline(best.Critical, cfg.Slack)
		return nil
	}); err != nil {
		return err
	}
	probs := uniformProbs(net, cfg.InputProb)
	for _, s := range []*flow.Synthesis{ma, mp} {
		var a *timing.Analysis
		var steps int
		var resizeErr error
		t.call("timing", func() error {
			a, steps, resizeErr = timing.Resize(s.Block, *cfg.Timing, target)
			return nil
		})
		s.Critical, s.ResizeSteps, s.MetTiming = a.Critical, steps, resizeErr == nil
		t.counts["timing.resize_steps"] += float64(steps)
		rep, err := t.simulate(s.Block, cfg, probs, tok)
		if err != nil {
			return err
		}
		s.SimPower = rep.Total
		est, err := t.estimate(s.Block, cfg, probs, tok)
		if err != nil {
			return err
		}
		s.EstPower = est.Total
		s.Size = int(math.Round(s.Block.Area()))
	}
	return nil
}

// traceEntries is a traced run over a corpus: the traced composition
// between two production passes through flow.RunCorpus, so the overhead
// comparison is not skewed by which pass runs first. Every traced row
// must equal its production row exactly, and the layer spans must
// account for at least minCoverage of the traced row wall; both are
// correctness checks of the run. The production rows are returned for
// the workload's own checks.
func traceEntries(res *result, entries []corpus.Entry, cc flow.CorpusConfig) ([]*flow.CorpusRow, error) {
	production := func() ([]*flow.CorpusRow, float64, error) {
		t0 := time.Now()
		rows, err := flow.RunCorpus(context.Background(), entries, cc)
		return rows, time.Since(t0).Seconds(), err
	}
	prod, before, err := production()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	for i, e := range entries {
		res.attempted++
		got, err := tr.runEntry(i, e, cc.Base, cc.Timed)
		if err != nil {
			res.problem("traced %s: %v", e.Name, err)
			continue
		}
		if err := sameRow(prod[i], got); err != nil {
			res.problem("traced %s drifted from production: %v", e.Name, err)
		}
	}
	_, after, err := production()
	if err != nil {
		return nil, err
	}
	tr.report(res, (before+after)/2)
	res.spans = tr.spans
	return prod, nil
}

// minCoverage is the share of traced row wall the layer spans must
// account for.
const minCoverage = 95.0

// report sets the per-layer metrics of a traced pass.
func (t *tracer) report(res *result, prodSecs float64) {
	leaf := 0.0
	for _, l := range tracedLayers {
		res.set(layerTimeMetric(l), t.busy[l])
		res.set(l+".alloc_mb", t.alloc[l])
		leaf += t.busy[l]
	}
	for _, name := range []string{"power.cone_groups", "phase.mp_trials", "phase.mp_commits",
		"phase.mp_rank_cands", "domino.cells", "timing.resize_steps", "budget.trips", "flow.degraded_rows"} {
		res.set(name, t.counts[name])
	}
	res.set("phase.ma_evals", float64(t.maEvals.Load()))
	res.set("sim.gate_evals", float64(t.gateEvals))
	skip := 0.0
	if n := t.gateEvals + t.gateSkips; n > 0 {
		skip = float64(t.gateSkips) / float64(n)
	}
	res.set("sim.skip_rate", skip)
	pct := func(secs float64) float64 { return 100 * secs / t.rowSecs }
	for _, st := range chainStages {
		res.set("flow.chain."+st+"_pct", pct(t.stageSecs[st]))
	}
	res.set("flow.chain_wasted_pct", pct(t.wastedSecs))
	if t.stagesRun > 0 {
		res.set("flow.chain_useful_ratio", float64(t.rowsDone)/float64(t.stagesRun))
	}
	coverage := pct(leaf)
	res.set("trace.coverage_pct", coverage)
	if coverage < minCoverage {
		res.problem("layer spans account for %.1f%% of traced row wall, want at least %.0f%%", coverage, minCoverage)
	}
	res.set("trace_overhead_pct", 100*(t.rowSecs-prodSecs)/prodSecs)
}

// sameRow compares a traced row with its production row; everything but
// the wall-clock WallSec must be identical.
func sameRow(prod, traced *flow.CorpusRow) error {
	switch {
	case prod.Err != "":
		return fmt.Errorf("production row failed: %s", prod.Err)
	case prod.Engine != traced.Engine:
		return fmt.Errorf("engine %q, production %q", traced.Engine, prod.Engine)
	case prod.BudgetTrips != traced.BudgetTrips:
		return fmt.Errorf("%d budget trips, production %d", traced.BudgetTrips, prod.BudgetTrips)
	case !reflect.DeepEqual(prod.Row, traced.Row):
		p, g := prod.Row, traced.Row
		return fmt.Errorf("row differs: MA size/power %d/%v vs production %d/%v, MP %d/%v vs %d/%v",
			g.MA.Size, g.MA.SimPower, p.MA.Size, p.MA.SimPower, g.MP.Size, g.MP.SimPower, p.MP.Size, p.MP.SimPower)
	}
	return nil
}

// writeSpans writes the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
