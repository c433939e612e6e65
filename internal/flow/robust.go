package flow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/sop"
	"repro/internal/timing"
)

// Validate rejects configurations that no flow can execute, or whose
// annealing schedule or delay model would let a search or resizing run
// without bound, naming the offending field in the error so API
// boundaries (internal/serve) can turn it into a structured 400 instead
// of a mid-job failure. It checks ranges only — it does not apply
// defaults, so the zero value validates.
func (c Config) Validate() error {
	switch {
	case c.InputProb < 0 || c.InputProb > 1:
		return fmt.Errorf("flow: config field InputProb: %v out of range [0,1]", c.InputProb)
	case c.SimVectors < 0:
		return fmt.Errorf("flow: config field SimVectors: %d is negative", c.SimVectors)
	case c.MaxPairs < 0:
		return fmt.Errorf("flow: config field MaxPairs: %d is negative", c.MaxPairs)
	case c.ExhaustiveLimit < 0:
		return fmt.Errorf("flow: config field ExhaustiveLimit: %d is negative", c.ExhaustiveLimit)
	case c.Slack < 0:
		return fmt.Errorf("flow: config field Slack: %v is negative", c.Slack)
	case c.MaxCollapseSupport < 0 || c.MaxCollapseSupport > sop.MaxSupport:
		return fmt.Errorf("flow: config field MaxCollapseSupport: %d out of range [0,%d]", c.MaxCollapseSupport, sop.MaxSupport)
	case c.Workers < 0:
		return fmt.Errorf("flow: config field Workers: %d is negative", c.Workers)
	case c.SimShards < 0 || c.SimShards > sim.MaxShards:
		return fmt.Errorf("flow: config field SimShards: %d out of range [0,%d]", c.SimShards, sim.MaxShards)
	case c.SimKernel > sim.KernelBlocked:
		return fmt.Errorf("flow: config field SimKernel: unknown kernel %d", int(c.SimKernel))
	case c.SimBlockWords < 0 || c.SimBlockWords > sim.MaxBlockWords:
		return fmt.Errorf("flow: config field SimBlockWords: %d out of range [0,%d]", c.SimBlockWords, sim.MaxBlockWords)
	case c.PhaseScoring < 0 || c.PhaseScoring > ScoreNaive:
		return fmt.Errorf("flow: config field PhaseScoring: unknown scoring mode %d", int(c.PhaseScoring))
	case c.SearchStrategy < 0 || c.SearchStrategy > phase.StrategyGreedy:
		return fmt.Errorf("flow: config field SearchStrategy: unknown strategy %d", int(c.SearchStrategy))
	case c.SearchStrategy == phase.StrategyBranchBound && c.PhaseScoring == ScoreNaive:
		return errors.New("flow: config field SearchStrategy: branch-and-bound needs the cone table's prefix bounds, which naive PhaseScoring does not build")
	case c.SearchRestarts < 0 || c.SearchRestarts > phase.MaxRestarts:
		return fmt.Errorf("flow: config field SearchRestarts: %d out of range [0,%d]", c.SearchRestarts, phase.MaxRestarts)
	case c.AnnealSteps < 0:
		return fmt.Errorf("flow: config field AnnealSteps: %d is negative", c.AnnealSteps)
	case c.BDDNodeBudget < 0:
		return fmt.Errorf("flow: config field BDDNodeBudget: %d is negative", c.BDDNodeBudget)
	case c.SimVectorBudget < 0:
		return fmt.Errorf("flow: config field SimVectorBudget: %d is negative", c.SimVectorBudget)
	case c.BDDReorder < 0 || c.BDDReorder > ReorderOff:
		return fmt.Errorf("flow: config field BDDReorder: unknown mode %d", int(c.BDDReorder))
	case c.EstOpts.Method < 0 || c.EstOpts.Method > power.MonteCarlo:
		return fmt.Errorf("flow: config field EstOpts.Method: unknown method %d", int(c.EstOpts.Method))
	case c.EstOpts.Depth < 0:
		return fmt.Errorf("flow: config field EstOpts.Depth: %d is negative", c.EstOpts.Depth)
	case c.EstOpts.MaxFrontier < 0:
		return fmt.Errorf("flow: config field EstOpts.MaxFrontier: %d is negative", c.EstOpts.MaxFrontier)
	case c.EstOpts.MCVectors < 0:
		return fmt.Errorf("flow: config field EstOpts.MCVectors: %d is negative", c.EstOpts.MCVectors)
	}
	// Annealing runs one chain per restart plus chain 0, AnnealSteps
	// proposals each; dividing the cap keeps the check free of overflow.
	chains := c.SearchRestarts + 1
	if c.SearchRestarts == 0 {
		chains = phase.DefaultRestarts + 1
	}
	if c.AnnealSteps > phase.MaxAnnealProposals/chains {
		return fmt.Errorf("flow: config field AnnealSteps: %d proposals on each of %d chains exceed %d in all",
			c.AnnealSteps, chains, phase.MaxAnnealProposals)
	}
	if c.Lib != nil {
		if err := validateLib(c.Lib); err != nil {
			return err
		}
	}
	if c.Timing != nil {
		return validateTiming(c.Timing)
	}
	return nil
}

// nonNegative names field when its value v is negative or not finite.
func nonNegative(field string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 1) {
		return fmt.Errorf("flow: config field %s: %v is negative or not finite", field, v)
	}
	return nil
}

// validateLib checks a configured cell library: width limits of at
// least 2, which domino.Map requires, and a finite non-negative penalty,
// areas and capacitances, so no row measures negative area or power.
func validateLib(l *domino.Library) error {
	switch {
	case l.MaxSeries < 2:
		return fmt.Errorf("flow: config field Lib.MaxSeries: %d is below 2", l.MaxSeries)
	case l.MaxParallel < 2:
		return fmt.Errorf("flow: config field Lib.MaxParallel: %d is below 2", l.MaxParallel)
	}
	return errors.Join(nonNegative("Lib.AndPenalty", l.AndPenalty), nonNegative("Lib.BaseCellArea", l.BaseCellArea),
		nonNegative("Lib.PerInputArea", l.PerInputArea), nonNegative("Lib.InverterArea", l.InverterArea),
		nonNegative("Lib.InputCap", l.InputCap), nonNegative("Lib.WireCap", l.WireCap), nonNegative("Lib.OutputCap", l.OutputCap))
}

// validateTiming checks a configured delay model: finite non-negative
// delays, a MaxSize in [1, timing.MaxSizeLimit], a finite SizeStep above
// 1, and at most timing.MaxUpsizings upsizings per cell, which bounds
// every Tighten and Resize at cells × MaxUpsizings steps.
func validateTiming(p *timing.Params) error {
	if err := errors.Join(nonNegative("Timing.Intrinsic", p.Intrinsic), nonNegative("Timing.SeriesDelay", p.SeriesDelay),
		nonNegative("Timing.LoadDelay", p.LoadDelay), nonNegative("Timing.InverterDelay", p.InverterDelay)); err != nil {
		return err
	}
	switch {
	case !(p.MaxSize >= 1 && p.MaxSize <= timing.MaxSizeLimit):
		return fmt.Errorf("flow: config field Timing.MaxSize: %v out of range [1,%d]", p.MaxSize, timing.MaxSizeLimit)
	case !(p.SizeStep > 1) || math.IsInf(p.SizeStep, 1):
		return fmt.Errorf("flow: config field Timing.SizeStep: %v is not a finite step above 1", p.SizeStep)
	}
	if n := math.Floor(math.Log(p.MaxSize) / math.Log(p.SizeStep)); n > timing.MaxUpsizings {
		return fmt.Errorf("flow: config field Timing.SizeStep: %v takes a cell to MaxSize %v in %v upsizings, more than %d",
			p.SizeStep, p.MaxSize, n, timing.MaxUpsizings)
	}
	return nil
}

// Engine names recorded per corpus row when the degradation chain
// replaced the configured probability engine.
const (
	// EngineDepthWeighted marks a row whose probabilities came from the
	// limited-depth engine after the configured engine blew the BDD node
	// budget.
	EngineDepthWeighted = "depth-weighted"
	// EngineMonteCarlo marks a row that fell all the way to Monte-Carlo
	// probability estimation, which builds no BDDs and so cannot trip
	// the node budget.
	EngineMonteCarlo = "monte-carlo"
	// EngineExactSifted marks a row whose configured engine blew the BDD
	// node budget but whose retry with in-place dynamic reordering
	// (Config.BDDReorder = ReorderAuto, the default) completed exactly —
	// full-accuracy probabilities, merely under a sifted variable order.
	EngineExactSifted = "exact-sifted"
)

// degradeStage is one rung of the engine-degradation chain: an engine
// name for the row record plus the configuration rewrite that selects
// the cheaper engine.
type degradeStage struct {
	engine string
	apply  func(*Config)
}

// degradeStages returns the chain for a configuration: just the
// configured engine when no BDD node budget is set (nothing can trip),
// otherwise configured → [exact-sifted] → limited-depth → Monte-Carlo.
// The reorder-and-retry stage appears only in the default ReorderAuto
// mode: it reruns the configured engine with in-place dynamic
// reordering armed, which rescues exact rows whose unsifted build blows
// the budget. (If the configured engine builds no reorderable BDDs the
// stage trips identically and the chain falls through — wasted work only
// on the rare row that was already degrading.) Under ReorderAlways the
// configured stage itself reorders, and under ReorderOff the chain is
// the plain PR-8 one. The chain is a pure function of the
// configuration, so which stage a circuit lands on is deterministic —
// independent of Workers, shard geometry, or scheduling.
func degradeStages(cfg Config) []degradeStage {
	stages := []degradeStage{{engine: ""}}
	if cfg.BDDNodeBudget > 0 {
		if cfg.BDDReorder == ReorderAuto {
			stages = append(stages,
				degradeStage{EngineExactSifted, func(c *Config) { c.BDDReorder = ReorderAlways }},
			)
		}
		stages = append(stages,
			degradeStage{EngineDepthWeighted, func(c *Config) { c.EstOpts.Method = power.LimitedDepth }},
			degradeStage{EngineMonteCarlo, func(c *Config) { c.EstOpts.Method = power.MonteCarlo }},
		)
	}
	return stages
}

// runDegraded drives one circuit down the degradation chain of the
// defaulted cfg: each stage runs under a fresh budget token attached to
// ctx, and only a BDD node-budget trip advances to the next (cheaper)
// stage — cancellation and real failures surface immediately. It
// returns the stage's row, the engine name of the stage that produced
// it ("" = the configured engine, untouched), and the total number of
// budget trips accumulated across every attempted stage.
func runDegraded(ctx context.Context, cfg Config, run func(Config, *budget.T) (*Row, error)) (row *Row, engine string, trips int, err error) {
	cfg.defaults()
	stages := degradeStages(cfg)
	for _, st := range stages {
		scfg := cfg
		if st.apply != nil {
			st.apply(&scfg)
		}
		tok := scfg.token()
		stop := tok.AttachContext(ctx)
		row, err = run(scfg, tok)
		stop()
		trips += tok.Trips()
		if err == nil {
			return row, st.engine, trips, nil
		}
		if !errors.Is(err, budget.ErrBDDNodes) {
			return nil, st.engine, trips, err
		}
	}
	return nil, stages[len(stages)-1].engine, trips, err
}

// runCircuitDegraded executes the untimed or timed combinational flow on
// one benchmark under ctx with the configured budgets and the
// degradation chain.
func runCircuitDegraded(ctx context.Context, c gen.NamedCircuit, cfg Config, timed bool) (*Row, string, int, error) {
	return runDegraded(ctx, cfg, func(scfg Config, tok *budget.T) (*Row, error) {
		return runCircuit(c, scfg, tok, timed)
	})
}

// runSequentialDegraded is runCircuitDegraded for the sequential flow.
func runSequentialDegraded(ctx context.Context, c *seq.Circuit, cfg Config) (*Row, string, int, error) {
	return runDegraded(ctx, cfg, func(scfg Config, tok *budget.T) (*Row, error) {
		return runSequential(c, scfg, tok)
	})
}
