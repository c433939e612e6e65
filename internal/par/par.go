// Package par is the repository's concurrency substrate: a bounded
// worker pool with deterministic, index-ordered results.
//
// Every parallel path in the reproduction (exhaustive phase search,
// sharded Monte-Carlo simulation, the concurrent corpus runner) is
// built on the same contract:
//
//   - work is split into numbered shards [0, n);
//   - shards execute on at most `workers` goroutines, claimed dynamically
//     so uneven shards load-balance;
//   - results are collected BY SHARD INDEX, never by completion order, so
//     any reduction over them is deterministic regardless of the worker
//     count or scheduling;
//   - the first failure cancels the shared context and the error reported
//     is the one from the lowest-numbered failing shard, again independent
//     of scheduling;
//   - a shard that panics fails with the error "panic: <value>" instead
//     of killing the process, on the pooled and the inline path alike.
//
// Determinism therefore rests on shard numbering alone: a caller that
// fixes its shard count gets bit-identical reductions at any worker
// count.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values greater than zero are
// returned unchanged, anything else defaults to GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines (resolved via Workers). The first failure cancels ctx for
// the remaining shards; the returned error is the lowest-numbered
// non-cancellation error recorded — shards that merely observed the
// cancellation (returning ctx.Err()) never mask the root cause, and
// shards skipped by the cancellation before running don't count as
// failures. If the caller's own ctx is cancelled mid-run, Do reports
// that instead of returning nil with work silently skipped.
//
// With workers resolved to 1 — or n < 2 — fn runs inline on the calling
// goroutine, so sequential callers pay no synchronization.
func Do(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					return
				}
				if err := call(ctx, i, fn); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	if cancelErr != nil {
		return cancelErr
	}
	// No shard recorded anything, yet the derived ctx may be done: only
	// the caller's own cancellation can cause that (our internal cancel
	// always follows an errs write), so surface it rather than reporting
	// skipped work as success.
	return ctx.Err()
}

// call runs one shard, recovering a panic into its error: a panic on a
// pooled worker goroutine would otherwise end the process.
func call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn(ctx, i)
}

// Map runs fn over every index in [0, n) under the Do contract and
// returns the results in index order. On error the partial slice is
// discarded and only the (lowest-shard) error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SplitRange divides [0, total) into `shards` contiguous half-open
// ranges whose sizes differ by at most one (earlier shards take the
// remainder). It is the canonical shard geometry: both the exhaustive
// phase search and the sharded simulator use it, so a fixed shard count
// always means the same partition.
func SplitRange(total, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	if shards > total {
		shards = total
	}
	if total <= 0 {
		return nil
	}
	out := make([][2]int, shards)
	base, rem := total/shards, total%shards
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = [2]int{lo, lo + size}
		lo += size
	}
	return out
}
