// Package flow wires the substrates into the paper's experimental flows
// (Section 5):
//
//	technology-independent optimization
//	  → phase assignment (minimum-area baseline "MA" [15], or the
//	    paper's minimum-power heuristic "MP")
//	  → domino technology mapping
//	  → (Table 2 only) transistor resizing to a timing target
//	  → power measurement by Monte-Carlo simulation (PowerMill stand-in)
//
// RunCircuit and RunCircuitTimed compute one row of the paper's Table 1
// and Table 2; over the synthetic benchmark twins of internal/gen
// (gen.Table1Circuits, gen.Table2Circuits) they regenerate both tables.
package flow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/prob"
	"repro/internal/sim"
	"repro/internal/sop"
	"repro/internal/timing"
)

// PhaseScoring selects how power-driven phase searches (MP and the
// exhaustive power objective) score candidate assignments.
type PhaseScoring int

// Phase-scoring modes.
const (
	// ScoreConeTable — the default — precomputes a power.ConeTable (both
	// phases of every output cone synthesized and priced once) and scores
	// each candidate assignment by cached-term summation; Apply runs only
	// on assignments the search keeps. Results match ScoreNaive's up to
	// float summation order. Every probability engine is supported.
	ScoreConeTable PhaseScoring = iota
	// ScoreNaive synthesizes and estimates every candidate from scratch —
	// the pre-cone-table behavior, kept as the reference oracle.
	ScoreNaive
)

// BDDReorderMode selects how budgeted exact-BDD builds use in-place
// dynamic variable reordering (bdd.Manager sifting). Reordering is
// deterministic — the trigger and every sift decision are pure
// functions of table state — but semantic: the probability summation
// order follows the DAG shape, so the mode is part of a configuration's
// canonical (content-addressed) form.
type BDDReorderMode int

// BDD reordering modes.
const (
	// ReorderAuto — the default — runs the configured engine without
	// reordering first; when a build trips the BDD node budget, a
	// reorder-and-retry stage (the exact engine with auto-reordering)
	// runs before the chain degrades to cheaper engines. Rows rescued by
	// that stage record Engine = "exact-sifted".
	ReorderAuto BDDReorderMode = iota
	// ReorderAlways arms auto-reordering in the configured stage itself;
	// the chain has no separate sifted stage (a trip falls straight to
	// depth-weighted).
	ReorderAlways
	// ReorderOff disables reordering everywhere, reproducing the plain
	// exact → depth-weighted → Monte-Carlo chain exactly.
	ReorderOff
)

// Config parameterizes the flows. The zero value is completed by
// defaults().
//
// Every field carries two pieces of cache-key bookkeeping, enforced at
// build time by the dominolint cachekey analyzer (internal/lint):
//
//   - a `Cache-key: semantic.` or `Cache-key: wall-clock` doc marker —
//     semantic fields are part of the content-addressed cache key,
//     wall-clock fields by contract never change any result and are
//     erased by Canonical;
//   - a json tag equal to the field name, pinning the wire name of the
//     canonical JSON that serve.CacheKey hashes.
type Config struct {
	// Lib is the domino cell library (default domino.DefaultLibrary).
	// Cache-key: semantic.
	Lib *domino.Library `json:"Lib"`
	// InputProb is the signal probability applied to every primary input
	// (the paper's tables use 0.5).
	// Cache-key: semantic.
	InputProb float64 `json:"InputProb"`
	// SimVectors is the Monte-Carlo cycle count for final measurement
	// (default sim.DefaultVectors).
	// Cache-key: semantic.
	SimVectors int `json:"SimVectors"`
	// SimSeed drives the measurement vectors.
	// Cache-key: semantic.
	SimSeed int64 `json:"SimSeed"`
	// EstOpts selects the probability engine for the optimization loop
	// and for the sequential flow's steady state.
	// Cache-key: semantic.
	EstOpts power.Options `json:"EstOpts"`
	// MaxPairs caps the MinPower candidate pair set (0 = all pairs).
	// Cache-key: semantic.
	MaxPairs int `json:"MaxPairs"`
	// ExhaustiveLimit is the output count up to which MinArea searches
	// exhaustively (default phase.DefaultExhaustiveLimit).
	// Cache-key: semantic.
	ExhaustiveLimit int `json:"ExhaustiveLimit"`
	// Timing is the delay model for the timed flow (default
	// timing.DefaultParams).
	// Cache-key: semantic.
	Timing *timing.Params `json:"Timing"`
	// Slack scales the Table 2 clock target over the fastest achievable
	// minimum-area implementation (default 1.25).
	// Cache-key: semantic.
	Slack float64 `json:"Slack"`
	// Resynthesize enables collapse-and-refactor before phase
	// assignment (sop.FactorNetwork): outputs with support up to
	// MaxCollapseSupport are rebuilt as the factored form of their ISOP
	// cover, wider ones are copied structurally. The pass builds the
	// network's BDDs once per degradation stage under that stage's
	// token, so it obeys the per-circuit timeout, cancellation and
	// BDDNodeBudget; a collapse build past the node budget trips every
	// stage and ends the row as a deterministic error row.
	// Cache-key: semantic.
	Resynthesize bool `json:"Resynthesize"`
	// MaxCollapseSupport is the largest output support Resynthesize
	// collapses (default 14, at most sop.MaxSupport). An ISOP cover can
	// have up to 2^(support-1) cubes (parity), so large values cost time
	// and memory that no node budget bounds.
	// Cache-key: semantic.
	MaxCollapseSupport int `json:"MaxCollapseSupport"`
	// Workers bounds the worker pool of the exhaustive phase search and
	// the Monte-Carlo measurement (0 = GOMAXPROCS, 1 = sequential). It
	// never changes results.
	// Cache-key: wall-clock (erased by Canonical).
	Workers int `json:"Workers"`
	// SimShards splits the measurement vectors into independently seeded
	// concurrent streams (see sim.Config.Shards); 0 keeps the
	// single-stream measurement. Validate caps it at sim.MaxShards.
	// Cache-key: semantic.
	SimShards int `json:"SimShards"`
	// SimKernel is kept so that existing configurations still decode
	// (see sim.Kernel): every valid value, 0 through sim.KernelBlocked,
	// runs the one blocked kernel. Like Workers, it never changes
	// results.
	// Cache-key: wall-clock (erased by Canonical).
	SimKernel sim.Kernel `json:"SimKernel"`
	// SimBlockWords sets the blocked kernel's block size in 64-lane
	// words (see sim.Config.BlockWords); 0 means the kernel default.
	// Like Workers, it never changes results — only wall-clock.
	// Cache-key: wall-clock (erased by Canonical).
	SimBlockWords int `json:"SimBlockWords"`
	// PhaseScoring selects the candidate-scoring engine of the
	// power-driven phase searches (zero value: the cone table).
	// Cache-key: semantic.
	PhaseScoring PhaseScoring `json:"PhaseScoring"`
	// SearchStrategy, when not StrategyAuto, replaces the paper's
	// pairwise MinPower heuristic with the selected phase-search
	// strategy (gray-code exhaustive, exact branch-and-bound, annealing,
	// or multi-restart greedy) over the configured scorer. It applies to
	// the power-driven search of SynthesizeMP and the sequential flow;
	// the MA baseline keeps its own dispatch.
	// Cache-key: semantic.
	SearchStrategy phase.SearchStrategy `json:"SearchStrategy"`
	// SearchRestarts, SearchSeed, and AnnealSteps parameterize the
	// strategy path (see phase.SearchOptions). Validate caps
	// SearchRestarts at phase.MaxRestarts.
	// Cache-key: semantic.
	SearchRestarts int `json:"SearchRestarts"`
	// SearchSeed seeds the randomized strategies (annealing, restarts).
	// Cache-key: semantic.
	SearchSeed int64 `json:"SearchSeed"`
	// AnnealSteps bounds the annealing schedule (0 = calibrated).
	// Cache-key: semantic.
	AnnealSteps int `json:"AnnealSteps"`
	// BDDNodeBudget caps the live node count of every BDD build run on
	// behalf of this configuration (0 = unlimited). When a build exceeds
	// it the circuit is retried down the degradation chain — exact BDD →
	// depth-weighted → Monte-Carlo probability estimation — and the
	// fallback stage is recorded per row (CorpusRow.Engine). The cap is
	// checked per build, so whether it trips is a pure function of the
	// configuration and circuit — never of Workers or scheduling.
	// Cache-key: semantic.
	BDDNodeBudget int `json:"BDDNodeBudget"`
	// SimVectorBudget caps the Monte-Carlo measurement vectors per sim
	// run (0 = unlimited). The clamp applies before sharding, so it is
	// deterministic for every Workers/SimShards setting.
	// Cache-key: semantic.
	SimVectorBudget int `json:"SimVectorBudget"`
	// BDDReorder selects the dynamic-reordering mode for budgeted exact
	// builds (see BDDReorderMode; the zero value, ReorderAuto, inserts a
	// reorder-and-retry stage into the degradation chain).
	// Cache-key: semantic.
	BDDReorder BDDReorderMode `json:"BDDReorder"`
}

// estOptions returns the probability-engine options bound to a budget
// token and the configured reorder mode. Every flow site building
// power.Options goes through it, so EstOpts.Reorder is always derived
// from Config.BDDReorder — the knob the content-addressed cache key
// covers — never from caller-set Options state.
func (c Config) estOptions(tok *budget.T) power.Options {
	o := c.EstOpts
	o.Budget = tok
	o.Reorder = c.BDDReorder == ReorderAlways
	return o
}

// timingParams returns the delay model bound to a budget token, which
// resizing polls before every trial upsizing. Like estOptions it works
// on a copy: the token never reaches the configuration or its JSON.
func (c Config) timingParams(tok *budget.T) timing.Params {
	p := *c.Timing
	p.Budget = tok
	return p
}

// token returns a fresh budget token carrying the configuration's BDD
// node and sim vector budgets.
func (c Config) token() *budget.T {
	return budget.New(c.BDDNodeBudget, c.SimVectorBudget)
}

func (c *Config) defaults() {
	if c.Lib == nil {
		lib := domino.DefaultLibrary()
		c.Lib = &lib
	}
	if c.InputProb == 0 {
		c.InputProb = 0.5
	}
	if c.SimVectors == 0 {
		c.SimVectors = sim.DefaultVectors
	}
	if c.ExhaustiveLimit == 0 {
		c.ExhaustiveLimit = phase.DefaultExhaustiveLimit
	}
	if c.Timing == nil {
		p := timing.DefaultParams()
		c.Timing = &p
	}
	if c.Slack == 0 {
		c.Slack = 1.25
	}
	if c.MaxCollapseSupport == 0 {
		c.MaxCollapseSupport = 14
	}
}

// Canonical returns the configuration's content-addressing form: every
// defaulted field is filled with its default (so the zero value and an
// explicitly spelled-out default hash identically) and the pure
// wall-clock knobs — Workers, SimKernel, and SimBlockWords, which by
// contract never
// change any result — are zeroed. Two configurations with equal
// Canonical() forms produce bit-identical flow rows for the same input;
// the converse is deliberately conservative (two configs that happen to
// behave identically may still canonicalize differently — a cache miss,
// never a wrong answer). internal/serve hashes the canonical form's
// JSON together with the submitted path and file bytes to
// content-address cached corpus rows.
func (c Config) Canonical() Config {
	c.defaults()
	// Deeper zero-value defaults applied by the engines themselves
	// (power.Options, prob, phase.SearchOptions) are read from their
	// packages, so zero-vs-default spellings of those knobs key
	// identically and run identically.
	if c.EstOpts.Depth == 0 {
		c.EstOpts.Depth = power.DefaultDepth
	}
	if c.EstOpts.MaxFrontier == 0 {
		c.EstOpts.MaxFrontier = prob.DefaultMaxFrontier
	}
	if c.EstOpts.MCVectors == 0 {
		c.EstOpts.MCVectors = prob.DefaultMCVectors
	}
	if c.SearchRestarts == 0 {
		c.SearchRestarts = phase.DefaultRestarts
	}
	// Pure wall-clock knobs: no result anywhere depends on them.
	c.Workers = 0
	c.SimKernel = 0
	c.SimBlockWords = 0
	return c
}

// Synthesis is one synthesized implementation (MA or MP) with its
// measurements.
type Synthesis struct {
	Assignment phase.Assignment
	Block      *domino.Block
	// Size is the standard-cell count (domino cells + boundary
	// inverters), the paper's "Size" column.
	Size int
	// EstPower is the model's power estimate: for an untimed MP
	// synthesis — combinational, sequential or SynthesizeMP's — the
	// search's own score of the chosen assignment, otherwise the
	// estimate of the measured (on timed rows, resized) block.
	EstPower float64
	// SimPower is the Monte-Carlo measured power (the paper's "Pwr"
	// column, in switched-capacitance units).
	SimPower float64
	// Critical is the post-flow critical delay: at minimum sizes, or
	// after resizing on timed rows. ResizeSteps and MetTiming are
	// populated by the timed flow (MetTiming is true otherwise).
	Critical    float64
	ResizeSteps int
	MetTiming   bool
}

// Row is one circuit's result pair, mirroring a row of Table 1/2. Every
// row kind shares it: a combinational row fills Desc, PIs, POs and the
// paper's numbers and leaves FFs, Cut and PseudoInputs zero; a
// sequential row (RunSequential) does the reverse.
type Row struct {
	Name, Desc string
	PIs, POs   int
	// FFs is the flip-flop count; Cut how many the enhanced MFVS cut;
	// PseudoInputs how many pseudo primary inputs the partition has.
	FFs, Cut, PseudoInputs int
	MA, MP                 Synthesis
	// AreaPenaltyPct and PowerSavingPct are the paper's "% Area Pen."
	// and "% Pwr Sav." columns computed from the measured values.
	AreaPenaltyPct float64
	PowerSavingPct float64
	// Paper*: the original paper's numbers for side-by-side reporting.
	PaperAreaPenaltyPct float64
	PaperPowerSavingPct float64
}

// Prepare runs technology-independent cleanup and XOR decomposition,
// returning a phase-ready network.
func Prepare(net *logic.Network) *logic.Network {
	n := net.Optimize()
	if n.CountKind(logic.KindXor) > 0 {
		n = n.DecomposeXor().Optimize()
	}
	return n
}

// prepare applies the configured technology-independent pipeline,
// optionally including collapse-and-refactor resynthesis, whose BDD
// build runs under the stage's token tok like every other build.
func prepare(net *logic.Network, cfg Config, tok *budget.T) (*logic.Network, error) {
	n := Prepare(net)
	if cfg.Resynthesize {
		f, err := sop.FactorNetwork(n, cfg.MaxCollapseSupport, tok)
		if err != nil {
			return nil, fmt.Errorf("flow: resynthesis: %w", err)
		}
		if f.CountKind(logic.KindXor) > 0 {
			f = f.DecomposeXor().Optimize()
		}
		n = f
	}
	return n, nil
}

// synthesizeMAAssignment runs the MA phase search on a prepared network
// — the single assignment-selection path shared by the combinational and
// sequential flows — scoring mapped cell count from an area table.
// ExhaustiveLimit is untrusted input, but the gray walk refuses every
// interface over 20 outputs. tok (nil = never cancelled) is polled by
// the search at a bounded interval.
func synthesizeMAAssignment(net *logic.Network, cfg Config, tok *budget.T) (phase.Assignment, *phase.Result, error) {
	table, err := power.NewAreaTable(net, *cfg.Lib)
	if err != nil {
		return nil, nil, fmt.Errorf("flow: MinArea: %w", err)
	}
	asg, res, _, err := phase.MinArea(net, phase.SearchOptions{
		ExhaustiveLimit: cfg.ExhaustiveLimit,
		Scorer:          table,
		Workers:         cfg.Workers,
		Budget:          tok,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("flow: MinArea: %w", err)
	}
	return asg, res, nil
}

// SynthesizeMA runs the minimum-area baseline on a prepared network
// under the configured budgets: the sim vector budget clamps the
// measurement, and a build past BDDNodeBudget is returned as the error.
func SynthesizeMA(net *logic.Network, cfg Config) (*Synthesis, error) {
	cfg.defaults()
	tok := cfg.token()
	asg, res, err := synthesizeMAAssignment(net, cfg, tok)
	if err != nil {
		return nil, err
	}
	return synthesize(asg, res, prob.Uniform(net, cfg.InputProb), cfg, tok, false, 0, nil)
}

// synthesizeMPAssignment runs the configured power-driven phase search
// on a prepared network with explicit per-input probabilities — the
// single scorer/strategy wiring shared by the combinational and
// sequential flows: cone-table scoring by default (naive estimator
// under ScoreNaive), the pairwise heuristic by default, or the
// cfg.SearchStrategy strategy.
func synthesizeMPAssignment(net *logic.Network, probs []float64, cfg Config, tok *budget.T) (phase.Assignment, *phase.Result, float64, error) {
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
	if cfg.PhaseScoring == ScoreNaive {
		popts.Evaluate = power.NewEstimator(*cfg.Lib, probs, cfg.estOptions(tok)).Evaluate
	} else {
		table, err := power.NewConeTable(net, *cfg.Lib, probs, cfg.estOptions(tok))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("flow: cone table: %w", err)
		}
		popts.Scorer = table
	}
	asg, res, est, _, err := phase.MinPower(net, popts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("flow: MinPower: %w", err)
	}
	return asg, res, est, nil
}

// SynthesizeMP runs the paper's minimum-power heuristic (or the
// configured search strategy) on a prepared network under the
// configured budgets, like SynthesizeMA. Its EstPower is the search's
// own score of the chosen assignment.
func SynthesizeMP(net *logic.Network, cfg Config) (*Synthesis, error) {
	cfg.defaults()
	tok := cfg.token()
	probs := prob.Uniform(net, cfg.InputProb)
	asg, res, est, err := synthesizeMPAssignment(net, probs, cfg, tok)
	if err != nil {
		return nil, err
	}
	return synthesize(asg, res, probs, cfg, tok, false, 0, &est)
}

// simConfig is the Monte-Carlo measurement of every synthesis: the
// configured vectors, seed and engine under probs, clamped by tok's sim
// vector budget.
func (c Config) simConfig(probs []float64, tok *budget.T) sim.Config {
	return sim.Config{
		Vectors: c.SimVectors, Seed: c.SimSeed, InputProbs: probs,
		Shards: c.SimShards, Workers: c.Workers, Kernel: c.SimKernel,
		BlockWords: c.SimBlockWords, Budget: tok,
	}
}

// synthesize is the one path from a chosen assignment to its measured
// Synthesis, shared by every row kind. It maps the phase result; a timed
// synthesis then resizes the block to the clock target and reports its
// sized area. The block is measured once — power.Estimate, then sim.Run —
// and an untimed synthesis finally reports its minimum-size critical
// delay. A non-nil score is the search's own estimate of asg: an untimed
// synthesis reports it as EstPower and runs no power.Estimate (resizing
// changes loads, so a timed one is estimated after resizing).
func synthesize(asg phase.Assignment, res *phase.Result, probs []float64, cfg Config, tok *budget.T, timed bool, target float64, score *float64) (*Synthesis, error) {
	b, err := domino.Map(res, *cfg.Lib)
	if err != nil {
		return nil, fmt.Errorf("flow: Map: %w", err)
	}
	s := &Synthesis{Assignment: asg, Block: b, Size: b.CellCount(), MetTiming: true}
	if timed {
		a, steps, err := timing.Resize(b, cfg.timingParams(tok), target)
		if errors.Is(err, budget.ErrCancelled) {
			return nil, fmt.Errorf("flow: Resize: %w", err)
		}
		s.Critical, s.ResizeSteps, s.MetTiming = a.Critical, steps, err == nil
		// The timed flow reports *sized area* rather than cell count:
		// resizing changes transistor widths, and the area cost of
		// meeting timing is the quantity Table 2's Size column tracks.
		s.Size = int(math.Round(b.Area()))
	}
	if score != nil && !timed {
		s.EstPower = *score
	} else {
		est, err := power.Estimate(b, probs, cfg.estOptions(tok))
		if err != nil {
			return nil, fmt.Errorf("flow: Estimate: %w", err)
		}
		s.EstPower = est.Total
	}
	rep, err := sim.Run(b, cfg.simConfig(probs, tok))
	if err != nil {
		return nil, fmt.Errorf("flow: sim: %w", err)
	}
	s.SimPower = rep.Total
	if !timed {
		s.Critical = timing.Analyze(b, *cfg.Timing).Critical
	}
	return s, nil
}

// RunCircuit executes the untimed (Table 1) flow on one benchmark under
// the configured budgets and degradation chain, as RunCorpus does.
func RunCircuit(c gen.NamedCircuit, cfg Config) (*Row, error) {
	row, _, _, err := runCircuitDegraded(context.Background(), c, cfg, false)
	return row, err
}

// RunCircuitTimed executes the Table 2 flow: both syntheses are resized
// to a shared clock target derived from the fastest achievable
// minimum-area implementation times the configured slack. Like
// RunCircuit it runs under the configured budgets and degradation chain.
func RunCircuitTimed(c gen.NamedCircuit, cfg Config) (*Row, error) {
	row, _, _, err := runCircuitDegraded(context.Background(), c, cfg, true)
	return row, err
}

// synthesizePair is the MA/MP composition every row kind shares, on a
// prepared network with per-input probabilities: MA search; when timed,
// the one clock target both syntheses are resized to — the fastest the
// MA circuit can be driven (a probe mapped from the MA result and
// tightened), relaxed by the slack factor; MA measurement; MP search; MP
// measurement, which takes the search's score (see synthesize).
func synthesizePair(net *logic.Network, probs []float64, cfg Config, tok *budget.T, timed bool) (ma, mp *Synthesis, err error) {
	maAsg, maRes, err := synthesizeMAAssignment(net, cfg, tok)
	if err != nil {
		return nil, nil, err
	}
	var target float64
	if timed {
		probe, err := domino.Map(maRes, *cfg.Lib)
		if err != nil {
			return nil, nil, fmt.Errorf("flow: Map: %w", err)
		}
		best, _ := timing.Tighten(probe, cfg.timingParams(tok))
		if err := tok.Err(); err != nil {
			return nil, nil, fmt.Errorf("flow: Tighten: %w", err)
		}
		target = timing.TargetFromBaseline(best.Critical, cfg.Slack)
	}
	if ma, err = synthesize(maAsg, maRes, probs, cfg, tok, timed, target, nil); err != nil {
		return nil, nil, err
	}
	mpAsg, mpRes, est, err := synthesizeMPAssignment(net, probs, cfg, tok)
	if err != nil {
		return nil, nil, err
	}
	if mp, err = synthesize(mpAsg, mpRes, probs, cfg, tok, timed, target, &est); err != nil {
		return nil, nil, err
	}
	return ma, mp, nil
}

// runCircuit is RunCircuit (or, when timed, RunCircuitTimed) under an
// optional cancellation/budget token: prepare, then the MA/MP pair
// under uniform input probabilities.
func runCircuit(c gen.NamedCircuit, cfg Config, tok *budget.T, timed bool) (*Row, error) {
	net, err := prepare(c.Net, cfg, tok)
	if err != nil {
		return nil, err
	}
	ma, mp, err := synthesizePair(net, prob.Uniform(net, cfg.InputProb), cfg, tok, timed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	row := &Row{
		Name: c.Name, Desc: c.Desc,
		PIs: c.Net.NumInputs(), POs: c.Net.NumOutputs(),
		MA: *ma, MP: *mp,
		PaperAreaPenaltyPct: c.PaperAreaPen,
		PaperPowerSavingPct: c.PaperPwrSav,
	}
	row.AreaPenaltyPct, row.PowerSavingPct = savings(ma, mp)
	return row, nil
}

// savings returns the paper's "% Area Pen." and "% Pwr Sav." columns of
// an MA/MP pair, from sizes and measured powers.
func savings(ma, mp *Synthesis) (areaPen, pwrSav float64) {
	if ma.Size > 0 {
		areaPen = 100 * float64(mp.Size-ma.Size) / float64(ma.Size)
	}
	if ma.SimPower > 0 {
		pwrSav = 100 * (ma.SimPower - mp.SimPower) / ma.SimPower
	}
	return areaPen, pwrSav
}

// Averages returns the mean area penalty and power saving of a row set —
// the paper's "Average" line.
func Averages(rows []*Row) (areaPen, pwrSav float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		areaPen += r.AreaPenaltyPct
		pwrSav += r.PowerSavingPct
	}
	n := float64(len(rows))
	return areaPen / n, pwrSav / n
}
