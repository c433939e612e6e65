package flow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/par"
)

// CorpusRow is one corpus member's outcome. Exactly one of Row and Err
// is set: a finished circuit yields its Row — combinational circuits
// through the Table 1/2 flow, latched BLIF models through the
// partitioned sequential flow, as Sequential says — and a parse or flow
// failure is isolated into Err without sinking the batch.
//
// Everything except WallSec is a pure function of (entry content,
// configuration): RunCorpus collects rows by entry index on the shared
// par pool, so a fixed corpus produces bit-identical rows at any worker
// count — the same contract as the sharded searches.
type CorpusRow struct {
	Index  int
	Name   string
	Path   string
	Format string
	// Sequential reports that the source declared latches and the row
	// came from the partitioned sequential flow.
	Sequential bool
	Row        *Row
	Err        string
	// TimedOut marks rows whose error came from the per-circuit Timeout
	// or from caller cancellation rather than from the circuit itself.
	// Such rows depend on machine speed — they are the documented
	// exception to the deterministic row contract — so result caches
	// (internal/serve) must never store them.
	TimedOut bool
	// Engine names the degradation-chain stage that produced the row
	// ("" = the configured engine; see EngineExactSifted,
	// EngineDepthWeighted, EngineMonteCarlo). Like the row values it is
	// a pure function of (entry content, configuration) — budget trips
	// are decided per BDD build, never by scheduling.
	Engine string
	// BudgetTrips counts how many resource-budget trips (BDD node caps,
	// sim vector clamps) occurred across every degradation stage this
	// row attempted.
	BudgetTrips int
	// WallSec is wall-clock and therefore NOT part of the deterministic
	// row contract. The JSONL serialization lives in
	// report.CorpusRecord, not here.
	WallSec float64
}

// CorpusConfig parameterizes RunCorpus.
type CorpusConfig struct {
	// Base is the flow configuration every circuit starts from.
	Base Config
	// Timed selects the Table 2 flow (resize to a slack-derived clock
	// target) instead of the untimed Table 1 flow for combinational
	// circuits. Latched models always use the sequential flow.
	Timed bool
	// Workers bounds how many circuits run concurrently (0 = GOMAXPROCS,
	// 1 = sequential). Parallelism lives at the circuit grain: callers
	// normally pin Base.Workers to 1 so concurrent circuits don't
	// oversubscribe the CPU. Neither knob changes results.
	Workers int
	// Timeout caps one circuit's wall-clock (0 = none). A circuit that
	// exceeds it yields an error row via cooperative cancellation: the
	// flow polls a budget token at bounded intervals (BDD inserts, sim
	// windows, search candidates), so the worker goroutine exits and its
	// memory is reclaimed before the next circuit starts. Whether a
	// given circuit times out depends on machine speed, so determinism
	// holds only for runs in which no row reports a timeout.
	Timeout time.Duration
	// Configure, when non-nil, derives the per-circuit configuration
	// from the base after parsing — per-circuit overrides for vector
	// budgets, search strategies, probability engines, and so on.
	Configure func(c *corpus.Circuit, base Config) Config
	// OnRow, when non-nil, streams rows in index order as they are
	// finalized, while later circuits are still running. It is called
	// from worker goroutines but never concurrently with itself.
	OnRow func(*CorpusRow)
}

// RunCorpus parses and runs every entry through the configured flow on
// the shared worker pool. Per-circuit failures (parse errors, flow
// errors, panics, timeouts) are isolated into their rows; the returned
// error is non-nil only when ctx is cancelled.
func RunCorpus(ctx context.Context, entries []corpus.Entry, cc CorpusConfig) ([]*CorpusRow, error) {
	rows := make([]*CorpusRow, len(entries))
	var mu sync.Mutex
	nextEmit := 0
	emit := func(i int, row *CorpusRow) {
		mu.Lock()
		defer mu.Unlock()
		rows[i] = row
		if cc.OnRow == nil {
			return
		}
		for nextEmit < len(rows) && rows[nextEmit] != nil {
			cc.OnRow(rows[nextEmit])
			nextEmit++
		}
	}
	err := par.Do(ctx, len(entries), cc.Workers, func(ctx context.Context, i int) error {
		emit(i, cc.runOne(ctx, i, entries[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runOne executes one corpus entry end to end, trapping every failure
// mode into the row. The flow runs inline on the worker goroutine under
// a timeout-derived context: a timeout or caller cancellation cancels
// the budget token the flow polls, so the goroutine unwinds and returns
// — nothing is abandoned, and repeated timed-out batches hold the
// goroutine count at its baseline.
func (cc *CorpusConfig) runOne(ctx context.Context, i int, e corpus.Entry) *CorpusRow {
	row := &CorpusRow{Index: i, Name: e.Name, Path: e.Path, Format: e.Format.String()}
	start := time.Now() //dominolint:walltime-ok WallSec is the one documented wall-clock row field; the cache key and all row comparisons exempt it
	runCtx := ctx
	if cc.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cc.Timeout)
		defer cancel()
	}
	cc.fillRow(runCtx, ctx, row, e)
	row.WallSec = time.Since(start).Seconds() //dominolint:walltime-ok WallSec is the one documented wall-clock row field; the cache key and all row comparisons exempt it
	return row
}

// fillRow runs the parse + flow pipeline for one entry, classifying the
// outcome into the row: panics become error rows, cancellation errors
// become timeout/cancellation rows (TimedOut set, never cached), and
// everything else is either a flow error or a result.
func (cc *CorpusConfig) fillRow(runCtx, ctx context.Context, row *CorpusRow, e corpus.Entry) {
	defer func() {
		if p := recover(); p != nil {
			row.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	c, err := corpus.Load(e)
	if err != nil {
		row.Err = err.Error()
		return
	}
	cfg := cc.Base
	if cc.Configure != nil {
		cfg = cc.Configure(c, cfg)
	}
	row.Sequential = c.Seq != nil
	if row.Sequential {
		row.Row, row.Engine, row.BudgetTrips, err = runSequentialDegraded(runCtx, c.Seq, cfg)
	} else {
		row.Row, row.Engine, row.BudgetTrips, err = runCircuitDegraded(runCtx, c.Named, cfg, cc.Timed)
	}
	if err != nil {
		cc.classifyErr(ctx, row, err)
	}
}

// classifyErr splits cancellation from genuine flow failures: an error
// caused by the parent context marks caller cancellation, any other
// cancellation came from the per-circuit timeout. Both set TimedOut so
// caches refuse the row.
func (cc *CorpusConfig) classifyErr(ctx context.Context, row *CorpusRow, err error) {
	if errors.Is(err, budget.ErrCancelled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		row.TimedOut = true
		if ctx.Err() != nil {
			row.Err = ctx.Err().Error()
		} else {
			row.Err = fmt.Sprintf("timeout after %v", cc.Timeout)
		}
		return
	}
	row.Err = err.Error()
}
