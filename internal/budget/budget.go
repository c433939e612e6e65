// Package budget provides the cooperative cancellation and
// resource-budget token threaded through every compute engine (bdd,
// prob, sim, phase, power) by internal/flow. A token is one cheap
// atomic word the hot loops poll at bounded intervals — per
// unique-table insert batch in the BDD manager, per simulation window
// in the sim kernels, per candidate or subtree in the phase searches —
// so a per-circuit timeout or a client disconnect becomes a real exit
// of the worker goroutine instead of abandonment.
//
// On top of cancellation the token carries two resource budgets:
//
//   - a BDD node budget capping the node count of any single BDD build
//     (exceeding it trips the token with ErrBDDNodes, which the flow's
//     degradation chain turns into a retry on a cheaper estimator);
//   - a sim vector budget clamping the Monte-Carlo vectors a single
//     measurement may spend (a pure min, applied before the run starts,
//     so it is independent of worker count and shard order).
//
// Both budgets are deterministic: whether a build trips depends only on
// the circuit and the semantic config, never on timing or concurrency,
// which is what lets budget-degraded rows stay cacheable.
//
// All methods are safe on a nil *T (no budget, never cancelled), so
// engines can poll unconditionally.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Sentinel causes for a tripped token. Match with errors.Is: every
// error a tripped token produces wraps exactly one of these.
var (
	// ErrCancelled is the cause when the token was cancelled — by the
	// attached context (timeout, client disconnect) or an explicit
	// Cancel call.
	ErrCancelled = errors.New("cancelled")
	// ErrBDDNodes is the cause when a single BDD build exceeded the
	// node budget. The flow treats it as "retry on a cheaper engine",
	// not as a failure.
	ErrBDDNodes = errors.New("BDD node budget exceeded")
)

// T is one cancellation/budget token. The zero value is not meaningful;
// use New. A nil *T is a valid "unlimited, never cancelled" token.
type T struct {
	err           atomic.Pointer[error] // set once; non-nil after trip/cancel
	maxBDDNodes   int
	maxSimVectors int
	bddTrips      atomic.Int64
	simTrips      atomic.Int64
}

// New returns a token with the given budgets. Zero (or negative)
// disables the corresponding budget; New(0, 0) is a pure cancellation
// token.
func New(maxBDDNodes, maxSimVectors int) *T {
	if maxBDDNodes < 0 {
		maxBDDNodes = 0
	}
	if maxSimVectors < 0 {
		maxSimVectors = 0
	}
	return &T{maxBDDNodes: maxBDDNodes, maxSimVectors: maxSimVectors}
}

// AttachContext arranges for the token to be cancelled when ctx is
// done, and returns a stop function releasing that arrangement (call it
// when the attempt finishes; it does not un-cancel the token). A
// context that is already done cancels the token synchronously, so work
// started after an expired deadline is guaranteed to observe it at its
// first poll rather than racing the cancellation goroutine.
func (t *T) AttachContext(ctx context.Context) (stop func()) {
	if t == nil || ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		t.Cancel(context.Cause(ctx))
		return func() {}
	}
	cancel := context.AfterFunc(ctx, func() { t.Cancel(context.Cause(ctx)) })
	return func() { cancel() }
}

// Cancel trips the token with ErrCancelled, recording cause (may be
// nil). Only the first trip of a token sticks.
func (t *T) Cancel(cause error) {
	if t == nil {
		return
	}
	err := error(ErrCancelled)
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrCancelled, cause)
	}
	t.err.CompareAndSwap(nil, &err)
}

// Err returns the trip cause, or nil while the token is live. This is
// the poll the hot loops issue: one atomic pointer load.
func (t *T) Err() error {
	if t == nil {
		return nil
	}
	if p := t.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Poll is the cancellation poll of a hot loop running in a par.Map
// shard: the shard context's error (par.Map's first-error propagation),
// then the token's. Both are one cheap atomic check.
func (t *T) Poll(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.Err()
}

// MaxBDDNodes returns the per-build BDD node cap, 0 if unlimited.
func (t *T) MaxBDDNodes() int {
	if t == nil {
		return 0
	}
	return t.maxBDDNodes
}

// TripBDD records a BDD node-budget trip and returns the error the
// build should surface. It does not cancel the token: the flow retries
// the circuit on a cheaper engine under the same token, so cancellation
// polls must keep returning nil.
func (t *T) TripBDD() error {
	if t == nil {
		return fmt.Errorf("%w", ErrBDDNodes)
	}
	t.bddTrips.Add(1)
	return fmt.Errorf("%w (max %d nodes)", ErrBDDNodes, t.maxBDDNodes)
}

// CapSimVectors clamps a requested vector count to the sim vector
// budget, recording a trip when the clamp bites. With no budget (or a
// nil token) it returns vectors unchanged.
func (t *T) CapSimVectors(vectors int) int {
	if t == nil || t.maxSimVectors <= 0 || vectors <= t.maxSimVectors {
		return vectors
	}
	t.simTrips.Add(1)
	return t.maxSimVectors
}

// BDDTrips returns how many builds tripped the node budget.
func (t *T) BDDTrips() int {
	if t == nil {
		return 0
	}
	return int(t.bddTrips.Load())
}

// SimTrips returns how many measurements were clamped by the vector
// budget.
func (t *T) SimTrips() int {
	if t == nil {
		return 0
	}
	return int(t.simTrips.Load())
}

// Trips returns the total budget trips (BDD + sim) recorded so far.
func (t *T) Trips() int {
	return t.BDDTrips() + t.SimTrips()
}
