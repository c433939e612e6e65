package phase_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
)

// stepTraceDigest hashes a MinPower step trace with K and Power as
// their exact float64 bits.
func stepTraceDigest(trace []phase.Step) string {
	h := sha256.New()
	for _, s := range trace {
		fmt.Fprintf(h, "%d %d %d %016x %016x %t\n", s.I, s.J, s.Combo,
			math.Float64bits(s.K), math.Float64bits(s.Power), s.Committed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flowConeTable prepares a twin as the untimed flow does and builds its
// default-config cone table at uniform input probability 0.5.
func flowConeTable(tb testing.TB, c gen.NamedCircuit) (*logic.Network, *power.ConeTable, []float64) {
	tb.Helper()
	net := flow.Prepare(c.Net)
	probs := make([]float64, net.NumInputs())
	for i := range probs {
		probs[i] = 0.5
	}
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
	if err != nil {
		tb.Fatalf("%s: NewConeTable: %v", c.Name, err)
	}
	return net, table, probs
}

// stepTracePins are the SHA-256 digests (stepTraceDigest) of MinPower's
// step trace on every Table 1 twin and x4 as the flow runs it, at
// MaxPairs 0 (all pairs) and 24. They were captured from the reference
// ranking (MinPowerOracle's algorithm), which is too slow to rerun on
// Industry 3 in a test.
var stepTracePins = map[string][2]string{
	"Industry 1": {
		"84d2ed3f82ab0c3f09871102b80c89be81213af1e367477482fd35b47defece5",
		"1fba65d380eeb1803928962e8411a4603fe5d5f67b6f176eff0851d81e26533e",
	},
	"Industry 2": {
		"b0918625e75a846c196dcd7d4e8089d4a2425d7773c1ba60b71d60abb6ed6d70",
		"a2d8f4a81291c635212a80cdac0b2d25b8298d99320b06e4c9f17a94e45e4a00",
	},
	"Industry 3": {
		"90ac790432ab71f1e264acfd5cef83310ce9a5630d56829f71d2a83049c55f04",
		"7c582482ae4895ff6750b6d32bc6bdc7056e7087b8f67e6741261ab81b09192c",
	},
	"apex7": {
		"9a85b0401d4f6f9bf998d10bfe166c4ba041d4768f681b005596e28eff42a858",
		"fe80eca847139929723c31e8fd2a23a9e1a63d43e0e83a9eb7a29fd33274d4b3",
	},
	"frg1": {
		"841ae93665fdc5124450b2b6f6797f8ebd595a98e30e204b9b438a095f616a96",
		"841ae93665fdc5124450b2b6f6797f8ebd595a98e30e204b9b438a095f616a96",
	},
	"x1": {
		"3a8ff013c509c6d24f90a3cc869f91ef2c637c75bcc34c23e0fec337362862aa",
		"ccf09dab1583ad8bf6a8f062c3c4614254b96cc450837bd07c39cb02bd0a405a",
	},
	"x3": {
		"a06670c6c5f03134529c7c32d5cb4760cb0e65bdb77ab30487d08594b19f5598",
		"ddd69097de942595eec4183d8176bff0226fc56235d5836f05ffce113ef0c7b3",
	},
	"x4": {
		"fa0175bcd2fa6b0ce411fe9b9d6b0fcec62a36a59a1c61712a825debfe28b3fb",
		"00f40231650108e9dc4e44bfc959260131af8d557775ffd86709fdf06b145f39",
	},
}

// TestMinPowerStepTracePins pins MinPower's step trace, bit for bit,
// on the Table 1 twins and x4.
func TestMinPowerStepTracePins(t *testing.T) {
	circuits := append(gen.Table1Circuits(), gen.X4())
	for _, c := range circuits {
		net, table, probs := flowConeTable(t, c)
		for x, maxPairs := range []int{0, 24} {
			_, _, _, trace, err := phase.MinPower(net, phase.PowerOptions{
				InputProbs: probs, Scorer: table, MaxPairs: maxPairs,
			})
			if err != nil {
				t.Fatalf("%s MaxPairs=%d: %v", c.Name, maxPairs, err)
			}
			got := stepTraceDigest(trace)
			if want := stepTracePins[c.Name][x]; got != want {
				t.Errorf("%s MaxPairs=%d: step trace digest %s, want %s", c.Name, maxPairs, got, want)
			}
		}
	}
}

// sameSteps reports the first difference between two step traces, with
// K and Power compared as float64 bits ("" when identical).
func sameSteps(got, want []phase.Step) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d steps, oracle %d", len(got), len(want))
	}
	for x, g := range got {
		w := want[x]
		if g.I != w.I || g.J != w.J || g.Combo != w.Combo || g.Committed != w.Committed ||
			math.Float64bits(g.K) != math.Float64bits(w.K) ||
			math.Float64bits(g.Power) != math.Float64bits(w.Power) {
			return fmt.Sprintf("step %d: %+v, oracle %+v", x, g, w)
		}
	}
	return ""
}

// TestMinPowerMatchesOracle is the ranking's differential test: on
// random networks, through both the cone-table Scorer and the Evaluate
// path, at MaxPairs 0, 1 and below the pair count, from an all-positive
// or a random Initial assignment, and under uniform or random input
// probabilities, MinPower returns the reference ranking's step trace,
// assignment and score bit for bit.
func TestMinPowerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0AC1E))
	lib := domino.DefaultLibrary()
	for trial := 0; trial < 120; trial++ {
		net := phase.RandomNoXorNetwork(rng, 3+rng.Intn(6), 10+rng.Intn(60), 2+rng.Intn(7))
		k := net.NumOutputs()
		// Uniform 0.5 inputs, the flow's default, make K ties between
		// combinations and between pairs common.
		probs := make([]float64, net.NumInputs())
		for i := range probs {
			probs[i] = 0.5
			if trial%3 != 0 {
				probs[i] = 0.1 + 0.8*rng.Float64()
			}
		}
		var initial phase.Assignment
		if trial%2 == 1 {
			initial = make(phase.Assignment, k)
			for i := range initial {
				initial[i] = rng.Intn(2) == 1
			}
		}
		table, err := power.NewConeTable(net, lib, probs, power.Options{})
		if err != nil {
			t.Fatalf("trial %d: NewConeTable: %v", trial, err)
		}
		pairs := k * (k - 1) / 2
		for _, maxPairs := range []int{0, 1, max(1, pairs-1-rng.Intn(pairs))} {
			for _, scored := range []bool{true, false} {
				opts := phase.PowerOptions{InputProbs: probs, Initial: initial, MaxPairs: maxPairs}
				if scored {
					opts.Scorer = table
				} else {
					opts.Evaluate = power.Evaluator(lib, probs, power.Options{})
				}
				wantAsg, wantScore, wantSteps, err := phase.MinPowerOracle(net, opts)
				if err != nil {
					t.Fatalf("trial %d: oracle: %v", trial, err)
				}
				asg, res, score, steps, err := phase.MinPower(net, opts)
				if err != nil {
					t.Fatalf("trial %d: MinPower: %v", trial, err)
				}
				where := fmt.Sprintf("trial %d (k=%d MaxPairs=%d scored=%v initial=%v)", trial, k, maxPairs, scored, initial != nil)
				if d := sameSteps(steps, wantSteps); d != "" {
					t.Fatalf("%s: %s", where, d)
				}
				if !reflect.DeepEqual(asg, wantAsg) || !reflect.DeepEqual(res.Assignment, asg) {
					t.Fatalf("%s: assignment %s (result %s), oracle %s", where, asg, res.Assignment, wantAsg)
				}
				if math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Fatalf("%s: score %v, oracle %v", where, score, wantScore)
				}
			}
		}
	}
}

// BenchmarkMinPowerConeTable times the pairwise heuristic over every
// output pair of the x3 twin, scored by its cone table (built once,
// outside the timer): ranking, re-ranks after each commit, and
// candidate scoring.
func BenchmarkMinPowerConeTable(b *testing.B) {
	net, table, probs := flowConeTable(b, gen.X3())
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, _, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: table}); err != nil {
			b.Fatal(err)
		}
	}
}
