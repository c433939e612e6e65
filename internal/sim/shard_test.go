package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/prob"
)

// shardTestBlock maps a mid-size synthetic network with a mixed-phase
// assignment so all three activity classes (domino cells, input and
// output boundary inverters) are exercised.
func shardTestBlock(t testing.TB) (*domino.Block, []float64) {
	t.Helper()
	n := gen.Generate(gen.Params{Name: "shard", Inputs: 12, Outputs: 6, Gates: 90, Seed: 97, OrProb: 0.6})
	n = n.Optimize()
	if n.CountKind(logic.KindXor) > 0 {
		n = n.DecomposeXor().Optimize()
	}
	asg := phase.AllPositive(n.NumOutputs())
	for i := range asg {
		asg[i] = i%2 == 1
	}
	res, err := phase.Apply(n, asg)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := domino.Map(res, domino.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return blk, prob.Uniform(n, 0.5)
}

func TestRunShardedIsDeterministic(t *testing.T) {
	blk, probs := shardTestBlock(t)
	for _, shards := range []int{1, 2, 7, 16} {
		cfg := Config{Vectors: 2048, Seed: 5, InputProbs: probs, Shards: shards, Workers: 4}
		a, err := Run(blk, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b, err := Run(blk, cfg)
		if err != nil {
			t.Fatalf("shards=%d rerun: %v", shards, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("shards=%d: two runs with identical (seed, shards) differ:\n%+v\n%+v", shards, a, b)
		}
	}
}

func TestRunShardedIndependentOfWorkers(t *testing.T) {
	blk, probs := shardTestBlock(t)
	var want *Report
	for _, workers := range []int{1, 2, 3, 8} {
		rep, err := Run(blk, Config{Vectors: 3000, Seed: 9, InputProbs: probs, Shards: 8, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("workers=%d: report differs from workers=1 at fixed (seed, shards)", workers)
		}
	}
}

func TestRunSingleShardMatchesLegacySequential(t *testing.T) {
	// Shards 0 (default) and 1 must reproduce the pre-sharding sequential
	// report bit-for-bit: one rng stream seeded Seed, one Welford pass.
	blk, probs := shardTestBlock(t)
	legacy, err := Run(blk, Config{Vectors: 1500, Seed: 21, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(blk, Config{Vectors: 1500, Seed: 21, InputProbs: probs, Shards: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, one) {
		t.Errorf("Shards=1 differs from default config:\n%+v\n%+v", legacy, one)
	}
}

func TestRunShardedEstimatesAgree(t *testing.T) {
	// Different shard counts are different samples of the same process:
	// totals must agree within overlapping confidence intervals.
	blk, probs := shardTestBlock(t)
	seq, err := Run(blk, Config{Vectors: 8192, Seed: 1, InputProbs: probs})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Run(blk, Config{Vectors: 8192, Seed: 1, InputProbs: probs, Shards: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Cycles != seq.Cycles {
		t.Errorf("cycles %d != %d", sh.Cycles, seq.Cycles)
	}
	if math.Abs(sh.Total-seq.Total) > (seq.TotalCI.High-seq.TotalCI.Low)+(sh.TotalCI.High-sh.TotalCI.Low) {
		t.Errorf("sharded total %v too far from sequential %v (CIs %+v vs %+v)",
			sh.Total, seq.Total, sh.TotalCI, seq.TotalCI)
	}
}

// kernelRetiredWide is the wire value of the retired one-word-at-a-time
// kernel. Configurations still carrying it run the blocked kernel.
const kernelRetiredWide Kernel = 1

// TestWideMatchesScalarKernel is the cross-check harness for the
// retired wide kernel's wire value: over random circuits, seeds, and
// shard counts, a Config carrying Kernel 1 must produce a Report
// byte-identical to the scalar reference oracle — including every float
// (power sums, confidence interval, per-cell frequencies) — and to
// KernelAuto's.
func TestWideMatchesScalarKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51DE))
	for trial := 0; trial < 8; trial++ {
		n := gen.Generate(gen.Params{
			Name:    "xchk",
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
		// Vector counts off the 64-lane grid exercise the tail-word
		// masking; shard counts exercise per-shard history restarts.
		for _, c := range []struct{ vectors, shards int }{
			{1, 1}, {63, 1}, {64, 1}, {65, 1}, {1000, 1},
			{1000, 3}, {2048, 8}, {777, 16}, {100, 64},
		} {
			cfg := Config{
				Vectors: c.vectors, Seed: int64(trial*100 + c.shards),
				InputProbs: probs, Shards: c.shards, Workers: 2,
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
			if !reflect.DeepEqual(scalar, wide) {
				t.Fatalf("trial %d %+v: kernels disagree\nscalar: %+v\nwide:   %+v",
					trial, c, scalar, wide)
			}
			cfg.Kernel = KernelAuto
			auto, err := Run(blk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(auto, wide) {
				t.Fatalf("trial %d %+v: KernelAuto differs from Kernel 1", trial, c)
			}
		}
	}
}

// TestRunDegenerateShardSizing is the regression test for Vectors <
// Shards: the budget must clamp to one vector per shard — no zero-vector
// shards, no NaNs from empty Welford accumulators in the merge.
func TestRunDegenerateShardSizing(t *testing.T) {
	blk, probs := shardTestBlock(t)
	for _, c := range []struct{ vectors, shards int }{
		{1, 64}, {2, 64}, {3, 64}, {5, 1000}, {63, 64},
	} {
		for _, k := range []Kernel{KernelScalar, KernelBlocked} {
			rep, err := Run(blk, Config{
				Vectors: c.vectors, Seed: 2, InputProbs: probs,
				Shards: c.shards, Workers: 8, Kernel: k,
			})
			if err != nil {
				t.Fatalf("%+v kernel=%d: %v", c, k, err)
			}
			if rep.Cycles != c.vectors {
				t.Errorf("%+v: cycles = %d, want %d", c, rep.Cycles, c.vectors)
			}
			for name, v := range map[string]float64{
				"DominoPower":    rep.DominoPower,
				"InputInvPower":  rep.InputInvPower,
				"OutputInvPower": rep.OutputInvPower,
				"Total":          rep.Total,
				"CI.Mean":        rep.TotalCI.Mean,
				"CI.Low":         rep.TotalCI.Low,
				"CI.High":        rep.TotalCI.High,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%+v kernel=%d: %s = %v", c, k, name, v)
				}
			}
			for ci, f := range rep.PerCellFreq {
				if math.IsNaN(f) {
					t.Errorf("%+v kernel=%d: PerCellFreq[%d] is NaN", c, k, ci)
				}
			}
		}
	}
}

// TestTotalCINotDegenerate guards the error bar itself: short runs fall
// back to per-cycle variance samples and long runs use batch means, but
// in both regimes (and in both kernels) the 95% interval must have
// positive width on a block with varying cycle power.
func TestTotalCINotDegenerate(t *testing.T) {
	blk, probs := shardTestBlock(t)
	for _, c := range []struct{ vectors, shards int }{
		{50, 1},   // < one window: per-cycle samples
		{65, 1},   // one full window + 1-cycle tail: per-cycle samples
		{200, 4},  // 50-cycle shards: per-cycle samples
		{4096, 8}, // batch means, 8 full windows per shard
		{2000, 3}, // batch means with partial tail windows per shard
	} {
		for _, k := range []Kernel{KernelScalar, KernelBlocked} {
			rep, err := Run(blk, Config{
				Vectors: c.vectors, Seed: 11, InputProbs: probs,
				Shards: c.shards, Workers: 2, Kernel: k,
			})
			if err != nil {
				t.Fatalf("%+v kernel=%d: %v", c, k, err)
			}
			if !(rep.TotalCI.Low < rep.TotalCI.High) {
				t.Errorf("%+v kernel=%d: degenerate CI [%v, %v]", c, k, rep.TotalCI.Low, rep.TotalCI.High)
			}
			if rep.TotalCI.Mean != rep.Total {
				t.Errorf("%+v kernel=%d: CI centered on %v, want Total %v", c, k, rep.TotalCI.Mean, rep.Total)
			}
			if rep.TotalCI.Low > rep.Total || rep.Total > rep.TotalCI.High {
				t.Errorf("%+v kernel=%d: CI [%v, %v] does not bracket Total %v",
					c, k, rep.TotalCI.Low, rep.TotalCI.High, rep.Total)
			}
		}
	}
}

func TestRunShardsCappedByVectors(t *testing.T) {
	blk, probs := shardTestBlock(t)
	rep, err := Run(blk, Config{Vectors: 3, Seed: 2, InputProbs: probs, Shards: 64, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", rep.Cycles)
	}
}
