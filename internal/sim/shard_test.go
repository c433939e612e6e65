package sim

import (
	"math"
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
	// report bit-for-bit: one rng stream seeded Seed.
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
	// totals must agree within 0.36% of the sequential total, the summed
	// widths of the two runs' former 95% intervals (0.369 on 102.26).
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
	if math.Abs(sh.Total-seq.Total) > 0.0036*seq.Total {
		t.Errorf("sharded total %v too far from sequential %v", sh.Total, seq.Total)
	}
}

// kernelRetiredWide is the wire value of the retired one-word-at-a-time
// kernel. Configurations still carrying it run the blocked kernel.
const kernelRetiredWide Kernel = 1

// TestRunDegenerateShardSizing is the regression test for Vectors <
// Shards: the budget must clamp to one vector per shard — no zero-vector
// shards, no NaNs in the merged report — under the scalar oracle
// (kernel=0) and the blocked kernel (kernel=1).
func TestRunDegenerateShardSizing(t *testing.T) {
	blk, probs := shardTestBlock(t)
	for _, c := range []struct{ vectors, shards int }{
		{1, 64}, {2, 64}, {3, 64}, {5, 1000}, {63, 64},
	} {
		for k, run := range []func(*domino.Block, Config) (*Report, error){runScalar, Run} {
			rep, err := run(blk, Config{
				Vectors: c.vectors, Seed: 2, InputProbs: probs,
				Shards: c.shards, Workers: 8,
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
