package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got < 1 {
		t.Errorf("Workers(-5) = %d, want >= 1", got)
	}
}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		const n = 100
		var counts [n]atomic.Int64
		err := Do(context.Background(), n, workers, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestDoReturnsLowestShardError(t *testing.T) {
	// Sequential: every shard runs in order, so the reported error is
	// exactly the first failing shard.
	err := Do(context.Background(), 50, 1, func(_ context.Context, i int) error {
		if i >= 7 {
			return fmt.Errorf("shard %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "shard 7 failed" {
		t.Errorf("workers=1: err = %v, want shard 7 failed", err)
	}
	// Parallel: cancellation may skip some failing shards before they
	// run, but the reported error must be a real shard failure (>= 7),
	// never the cancellation noise of a sibling that observed ctx.
	for _, workers := range []int{4, 16} {
		err := Do(context.Background(), 50, workers, func(ctx context.Context, i int) error {
			if i >= 7 {
				return fmt.Errorf("shard %d failed", i)
			}
			return ctx.Err() // low shards surface cancellation, like a real scan loop
		})
		if err == nil || !strings.HasPrefix(err.Error(), "shard ") {
			t.Errorf("workers=%d: err = %v, want a real shard failure", workers, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancellation masked the root cause: %v", workers, err)
		}
	}
}

func TestDoParallelReportsCallerCancellation(t *testing.T) {
	// A caller cancelling mid-run must get an error, not nil with shards
	// silently skipped (and Map must not hand back zero-valued results).
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := Map(ctx, 1000, 4, func(ctx context.Context, i int) (int, error) {
		once.Do(cancel)
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDoCancelsOnError(t *testing.T) {
	var started atomic.Int64
	sentinel := errors.New("boom")
	err := Do(context.Background(), 10_000, 2, func(ctx context.Context, i int) error {
		started.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	// The first failure cancels the pool: nearly all shards are skipped.
	if s := started.Load(); s > 100 {
		t.Errorf("%d shards ran after first error", s)
	}
}

func TestDoHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Do(ctx, 5, 1, func(context.Context, int) error { ran = true; return nil })
	if err == nil {
		t.Error("expected context error")
	}
	if ran {
		t.Error("shard ran under cancelled context")
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := Map(context.Background(), 64, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSplitRange(t *testing.T) {
	cases := []struct {
		total, shards int
		want          [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // shards capped at total
		{5, 1, [][2]int{{0, 5}}},
		{0, 4, nil},
	}
	for _, c := range cases {
		got := SplitRange(c.total, c.shards)
		if len(got) != len(c.want) {
			t.Errorf("SplitRange(%d,%d) = %v, want %v", c.total, c.shards, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitRange(%d,%d)[%d] = %v, want %v", c.total, c.shards, i, got[i], c.want[i])
			}
		}
	}
}

// TestMapRecoversPanic: a shard that panics fails the Map with the same
// error at every worker count — on the pooled path as on the inline one
// — and the process survives to report it.
func TestMapRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out, err := Map(context.Background(), 16, workers, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				var s []int
				return s[i], nil
			}
			return i, nil
		})
		const want = "panic: runtime error: index out of range [5] with length 0"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if out != nil {
			t.Errorf("workers=%d: partial results returned on error", workers)
		}
	}
}
