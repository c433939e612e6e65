package seq_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sgraph"
)

// TestCutDeterministic: the enhanced-MFVS cut is a pure function of the
// circuit. The sweep holds dozens of circuits with several minimum-weight
// cuts (for 16 flip-flops, seeds 18, 299 and others), where any
// map-order dependence of the search shows between calls.
func TestCutDeterministic(t *testing.T) {
	for _, ffs := range []int{6, 10, 16, 24} {
		for seed := int64(0); seed < 300; seed++ {
			c, err := gen.Sequential(gen.SeqParams{
				Name: "cut", Inputs: 8, FFs: ffs, Gates: 40 + 3*ffs, Seed: seed, TwinProb: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			first := c.Cut(sgraph.DefaultOptions())
			for call := 1; call < 8; call++ {
				if got := c.Cut(sgraph.DefaultOptions()); !slices.Equal(got, first) {
					t.Fatalf("%d FFs, seed %d: call %d cut %v, first call %v", ffs, seed, call, got, first)
				}
			}
		}
	}
}
