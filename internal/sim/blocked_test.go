package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/phase"
)

// TestBlockedMatchesScalarAndWideKernels is the cross-check harness for
// the blocked/gated engine: over the PR 2 matrix of random circuits,
// seeds, shard counts, and worker counts — including Vectors < Shards,
// where the clamp leaves shards far smaller than one block — the
// blocked kernel's Report must be byte-identical to the scalar oracle at
// every supported block size, and so must a Config carrying the retired
// wide kernel's wire value, which runs the blocked kernel.
func TestBlockedMatchesScalarAndWideKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C5))
	for trial := 0; trial < 6; trial++ {
		n := gen.Generate(gen.Params{
			Name:    "blkchk",
			Inputs:  4 + rng.Intn(12),
			Outputs: 2 + rng.Intn(6),
			Gates:   20 + rng.Intn(120),
			Seed:    rng.Int63(),
			OrProb:  0.3 + 0.5*rng.Float64(),
		})
		asg := make(phase.Assignment, n.NumOutputs())
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		res, err := phase.Apply(n, asg)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := domino.Map(res, domino.DefaultLibrary())
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, n.NumInputs())
		for i := range probs {
			probs[i] = rng.Float64()
		}
		// The PR 2 grid plus the degenerate-sizing cases: {1,64} and
		// {5,1000} clamp to one-vector shards, {100,64} leaves shards of
		// one to two cycles — all far below a single block.
		for _, c := range []struct{ vectors, shards, workers int }{
			{1, 1, 2}, {63, 1, 2}, {64, 1, 2}, {65, 1, 2}, {1000, 1, 2},
			{1000, 3, 1}, {2048, 8, 8}, {777, 16, 2}, {100, 64, 4},
			{1, 64, 8}, {5, 1000, 2},
		} {
			cfg := Config{
				Vectors: c.vectors, Seed: int64(trial*1000 + c.shards),
				InputProbs: probs, Shards: c.shards, Workers: c.workers,
			}
			cfg.Kernel = KernelScalar
			scalar, err := Run(blk, cfg)
			if err != nil {
				t.Fatalf("trial %d scalar %+v: %v", trial, c, err)
			}
			cfg.Kernel = kernelRetiredWide
			wide, err := Run(blk, cfg)
			if err != nil {
				t.Fatalf("trial %d wide %+v: %v", trial, c, err)
			}
			for _, bw := range []int{1, 2, 4, 5, 8} {
				cfg.Kernel = KernelBlocked
				cfg.BlockWords = bw
				blocked, err := Run(blk, cfg)
				if err != nil {
					t.Fatalf("trial %d blocked bw=%d %+v: %v", trial, bw, c, err)
				}
				if !reflect.DeepEqual(blocked, scalar) {
					t.Fatalf("trial %d bw=%d %+v: blocked differs from scalar oracle\nblocked: %+v\nscalar:  %+v",
						trial, bw, c, blocked, scalar)
				}
				if !reflect.DeepEqual(blocked, wide) {
					t.Fatalf("trial %d bw=%d %+v: blocked differs from wide", trial, bw, c)
				}
			}
			// KernelAuto must be the blocked engine at the default block
			// size — same Report, and it populates gating stats.
			var stats KernelStats
			cfg.Kernel = KernelAuto
			cfg.BlockWords = 0
			cfg.Stats = &stats
			auto, err := Run(blk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(auto, scalar) {
				t.Fatalf("trial %d %+v: KernelAuto differs from scalar oracle", trial, c)
			}
			if stats.GateEvals == 0 {
				t.Fatalf("trial %d %+v: KernelAuto reported no gate evaluations — not the blocked engine?", trial, c)
			}
			cfg.Stats = nil
		}
	}
}

// TestBlockedGatingStatsContract pins the KernelStats out-parameter
// across block sizes, partial tail windows and per-cycle CI: counters
// are deterministic for fixed (Seed, Shards, BlockWords), invariant
// under Workers, account for every gate × block (Σ over shards of
// ⌈⌈v_s/64⌉/bw⌉ × gates), and stay zero under the scalar kernel.
func TestBlockedGatingStatsContract(t *testing.T) {
	blk, probs := shardTestBlock(t)
	gates := 0
	for id := 0; id < blk.Net.NumNodes(); id++ {
		if blk.Net.Kind(logic.NodeID(id)).IsGate() {
			gates++
		}
	}
	for _, c := range []struct{ vectors, shards, bw int }{
		// 750-vector shards: 12 windows, the last one partial.
		{3000, 4, 1}, {3000, 4, 5}, {3000, 4, 8},
		// 50-vector shards: per-cycle CI, one partial window each.
		{200, 4, 8},
	} {
		var want int64
		for _, r := range par.SplitRange(c.vectors, c.shards) {
			windows := (r[1] - r[0] + simWindow - 1) / simWindow
			want += int64((windows + c.bw - 1) / c.bw * gates)
		}
		var base KernelStats
		cfg := Config{Vectors: c.vectors, Seed: 3, InputProbs: probs,
			Shards: c.shards, Workers: 2, Kernel: KernelBlocked, BlockWords: c.bw, Stats: &base}
		if _, err := Run(blk, cfg); err != nil {
			t.Fatal(err)
		}
		if got := base.GateEvals + base.GateSkips; got != want {
			t.Errorf("%+v: evals %d + skips %d = %d decisions, want %d",
				c, base.GateEvals, base.GateSkips, got, want)
		}
		for _, workers := range []int{1, 3, 8} {
			var s KernelStats
			cfg.Workers, cfg.Stats = workers, &s
			if _, err := Run(blk, cfg); err != nil {
				t.Fatal(err)
			}
			if s != base {
				t.Errorf("%+v workers=%d: stats %+v differ from workers=2 baseline %+v", c, workers, s, base)
			}
		}
		var s KernelStats
		cfg.Workers, cfg.Kernel, cfg.Stats = 2, KernelScalar, &s
		if _, err := Run(blk, cfg); err != nil {
			t.Fatal(err)
		}
		if s != (KernelStats{}) {
			t.Errorf("%+v: scalar kernel reported gating stats %+v", c, s)
		}
	}
}

// TestBlockedSkipRateOnLowActivity checks that activity gating pays off
// where it is designed to: with near-constant inputs (small dyadic
// probabilities, so most packed words are all-zero and repeat block
// over block) well over half the gate evaluations must be skipped,
// while the Report still matches the scalar oracle exactly.
func TestBlockedSkipRateOnLowActivity(t *testing.T) {
	blk, probs := shardTestBlock(t)
	for i := range probs {
		probs[i] = 1.0 / 8192 // dyadic: quantization-exact, 13 rng draws/word
	}
	var stats KernelStats
	cfg := Config{Vectors: 8192, Seed: 17, InputProbs: probs,
		Shards: 4, Workers: 2, Kernel: KernelBlocked, Stats: &stats}
	blocked, err := Run(blk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rate := stats.SkipRate(); rate <= 0.5 {
		t.Errorf("low-activity skip rate %.3f (evals %d, skips %d), want > 0.5",
			rate, stats.GateEvals, stats.GateSkips)
	}
	cfg.Kernel = KernelScalar
	cfg.Stats = nil
	scalar, err := Run(blk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blocked, scalar) {
		t.Errorf("gated low-activity report differs from scalar oracle")
	}
}

// TestBlockedKernelAllocRegression is the alloc-regression assertion on
// the blocked kernel: allocations per Run must stay O(shards) setup
// cost — scratch reuse means nothing allocates per block or per window.
// The bound is loose (setup is ~20 slices per shard plus report
// assembly) but catches any per-window allocation immediately: 64
// windows would blow through it.
func TestBlockedKernelAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion")
	}
	blk, probs := shardTestBlock(t)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(blk, Config{
				Vectors: 4096, Seed: 1, InputProbs: probs, Kernel: KernelBlocked,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > 120 {
		t.Errorf("blocked kernel run: %d allocs/op, want ≤ 120 (per-block allocation regression?)", allocs)
	}
}

// BenchmarkSimKernels compares the two engines on the shard test block.
func BenchmarkSimKernels(b *testing.B) {
	blk, probs := shardTestBlock(b)
	for _, k := range []struct {
		name   string
		kernel Kernel
	}{{"scalar", KernelScalar}, {"blocked", KernelBlocked}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(blk, Config{
					Vectors: 4096, Seed: 1, InputProbs: probs, Kernel: k.kernel,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
