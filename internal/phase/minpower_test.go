package phase_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
// MaxPairs 0 (all pairs) and 24. MinPowerOracle's traces have the same
// digests. TestMinPowerMatchesOracleOnTwins reruns the oracle on every
// case but Industry 1 and 3 at MaxPairs 0 (3.6 s and 15 s of oracle
// time), whose digests were checked against the oracle's once.
var stepTracePins = map[string][2]string{
	"Industry 1": {
		"d98ba10f28c658ac474b9339ad7363d0c31de6393fef573cb0b3073295535938",
		"1361f6ae5170ebbaf1b9092b3ff7dd13b64d9adb17d9e446945a8ccf930c39ac",
	},
	"Industry 2": {
		"c063196f7b176261b72cbd06688f9faa47412625803fa2861e5748dd87a1d6d2",
		"a2d8f4a81291c635212a80cdac0b2d25b8298d99320b06e4c9f17a94e45e4a00",
	},
	"Industry 3": {
		"8dab31a99e9222e22739c87696bd1f014e3120f067b299a4ef6bebf916ec0760",
		"68733a985a77346b7394bc30e2a4a93c02d6a0c1513e594bc3f0d4929a6a3f08",
	},
	"apex7": {
		"4855ac4b7b78d85e86ac70b314e33b8a9ccf21f9d7359543f57ed4b063e1a353",
		"fd05abb3a58e6f73f46a65c2f8ee488042b90f01d429fb37bbe8647b287ad3b4",
	},
	"frg1": {
		"841ae93665fdc5124450b2b6f6797f8ebd595a98e30e204b9b438a095f616a96",
		"841ae93665fdc5124450b2b6f6797f8ebd595a98e30e204b9b438a095f616a96",
	},
	"x1": {
		"0408915b010a0afade17ef9ba0242ffa49dab79922193b941b22a4c6b9c91250",
		"28897f541f4d8cd23afad65b587d96385763eca94a4ef9e2247995a92ce312bd",
	},
	"x3": {
		"d1de56b72267397b1624d01684679c2014301ed85920a3036aea81d46ceafe72",
		"6920c907606ec9551aa901924058e2bc2f79c054f430d936c14a56199a08beaa",
	},
	"x4": {
		"a2fd5041c699a58cdbc2db979c8fea74525e9e4b641def0b91d17d72ed62be8a",
		"0241e8423ddf7f24bd38282991a754f87a3a98d76f4211135873e84195297f6e",
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
					opts.Evaluate = power.NewEstimator(lib, probs, power.Options{}).Evaluate
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

// TestMinPowerMatchesOracleOnTwins runs the differential test of
// TestMinPowerMatchesOracle on twins as the flow prepares them: every
// pinned circuit but Industry 1 and 3 over every pair, and every pinned
// circuit at MaxPairs 24. Industry 2, x3 and x4 over every pair take
// the oracle 0.5–1.2 s each and are skipped under -short and -race.
// (Industry 1 and 3 over every pair take it 3.6 s and 15 s; their
// traces are pinned by digest only.)
func TestMinPowerMatchesOracleOnTwins(t *testing.T) {
	type twinCase struct {
		c        gen.NamedCircuit
		maxPairs int
	}
	cases := []twinCase{{gen.Apex7(), 0}, {gen.Frg1(), 0}, {gen.X1(), 0}}
	if !testing.Short() && !raceEnabled {
		cases = append(cases, twinCase{gen.Industry2(), 0}, twinCase{gen.X3(), 0}, twinCase{gen.X4(), 0})
	}
	for _, c := range append(gen.Table1Circuits(), gen.X4()) {
		cases = append(cases, twinCase{c, 24})
	}
	for _, tc := range cases {
		net, table, probs := flowConeTable(t, tc.c)
		opts := phase.PowerOptions{InputProbs: probs, Scorer: table, MaxPairs: tc.maxPairs}
		wantAsg, wantScore, wantSteps, err := phase.MinPowerOracle(net, opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.c.Name, err)
		}
		asg, _, score, steps, err := phase.MinPower(net, opts)
		if err != nil {
			t.Fatalf("%s: MinPower: %v", tc.c.Name, err)
		}
		where := fmt.Sprintf("%s MaxPairs=%d", tc.c.Name, tc.maxPairs)
		if d := sameSteps(steps, wantSteps); d != "" {
			t.Errorf("%s: %s", where, d)
		}
		if !reflect.DeepEqual(asg, wantAsg) || math.Float64bits(score) != math.Float64bits(wantScore) {
			t.Errorf("%s: %s score %v, oracle %s score %v", where, asg, score, wantAsg, wantScore)
		}
	}
}

// plainScorer hides a scorer's NewState, so MinPower rescores each
// trial assignment; after fail calls ScoreAssignment returns errPlain
// (fail 0 never fails).
type plainScorer struct {
	sc    phase.AssignmentScorer
	calls int
	fail  int
}

var errPlain = errors.New("plain scorer failed")

func (p *plainScorer) ScoreAssignment(asg phase.Assignment) (float64, error) {
	if p.calls++; p.fail > 0 && p.calls > p.fail {
		return 0, errPlain
	}
	return p.sc.ScoreAssignment(asg)
}

// TestMinPowerPlainScorer runs MinPower through a Scorer without a
// native state: its trace, assignment and score equal the cone table's
// own bit for bit, and a scoring failure mid-run is MinPower's error.
func TestMinPowerPlainScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9A1))
	for trial := 0; trial < 20; trial++ {
		net := phase.RandomNoXorNetwork(rng, 3+rng.Intn(6), 10+rng.Intn(60), 2+rng.Intn(8))
		probs := make([]float64, net.NumInputs())
		for i := range probs {
			probs[i] = 0.05 + 0.9*rng.Float64()
		}
		table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantAsg, _, wantScore, wantSteps, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: table})
		if err != nil {
			t.Fatal(err)
		}
		plain := &plainScorer{sc: table}
		asg, res, score, steps, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: plain})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := sameSteps(steps, wantSteps); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if !reflect.DeepEqual(asg, wantAsg) || !reflect.DeepEqual(res.Assignment, asg) ||
			math.Float64bits(score) != math.Float64bits(wantScore) {
			t.Fatalf("trial %d: %s (result %s) score %v, want %s score %v", trial, asg, res.Assignment, score, wantAsg, wantScore)
		}
		if plain.calls < 2 {
			continue
		}
		// MinPower scores each trial once and stops at the first failed
		// one.
		failing := &plainScorer{sc: table, fail: 1 + rng.Intn(plain.calls-1)}
		if _, _, _, _, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: failing}); !errors.Is(err, errPlain) {
			t.Errorf("trial %d: failure after %d of %d calls: err %v, want %v", trial, failing.fail, plain.calls, err, errPlain)
		}
		if failing.calls > failing.fail+1 {
			t.Errorf("trial %d: %d calls after a failure at call %d", trial, failing.calls, failing.fail+1)
		}
	}
}

// TestUnionStatsMatchBlocks is MinPower's union premise: at any
// assignment, every output's |D|, A and pairwise O read from the union
// block at the assignment's phases equal those of Apply(n, asg)'s own
// block, bit for bit — on random networks under random input
// probabilities, and on every known twin as the flow prepares it.
func TestUnionStatsMatchBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0CE5))
	randomAsg := func(k int) phase.Assignment {
		asg := make(phase.Assignment, k)
		for i := range asg {
			asg[i] = rng.Intn(2) == 1
		}
		return asg
	}
	check := func(name string, net *logic.Network, probs []float64, asg phase.Assignment) {
		t.Helper()
		d, err := phase.UnionStatsDiff(net, asg, probs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d != "" {
			t.Errorf("%s at %s: %s", name, asg, d)
		}
	}
	for trial := 0; trial < 60; trial++ {
		net := phase.RandomNoXorNetwork(rng, 3+rng.Intn(8), 10+rng.Intn(120), 2+rng.Intn(10))
		probs := make([]float64, net.NumInputs())
		for i := range probs {
			probs[i] = 0.05 + 0.9*rng.Float64()
		}
		check(fmt.Sprintf("trial %d", trial), net, probs, randomAsg(net.NumOutputs()))
	}
	for _, c := range gen.KnownCircuits() {
		net := flow.Prepare(c.Net)
		probs := make([]float64, net.NumInputs())
		for i := range probs {
			probs[i] = 0.05 + 0.9*rng.Float64()
		}
		for x := 0; x < 8; x++ {
			check(c.Name, net, probs, randomAsg(net.NumOutputs()))
		}
	}
}

// BenchmarkMinPowerConeTable times the pairwise heuristic over every
// output pair of the x3 and Industry 3 twins (19,701 pairs), scored by
// their cone tables (built once, outside the timer): the union
// statistics, the ranking, re-pricing after each commit, and candidate
// scoring.
func BenchmarkMinPowerConeTable(b *testing.B) {
	for _, c := range []gen.NamedCircuit{gen.X3(), gen.Industry3()} {
		b.Run(c.Name, func(b *testing.B) {
			net, table, probs := flowConeTable(b, c)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, _, err := phase.MinPower(net, phase.PowerOptions{InputProbs: probs, Scorer: table}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
