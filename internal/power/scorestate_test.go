package power_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
)

// tableFunc builds a cone table of one term set.
type tableFunc func(n *logic.Network, lib domino.Library, probs []float64, opts power.Options) (*power.ConeTable, error)

// areaTable builds the area term set (it takes no probabilities).
func areaTable(n *logic.Network, lib domino.Library, _ []float64, _ power.Options) (*power.ConeTable, error) {
	return power.NewAreaTable(n, lib)
}

// stateCases is the incremental-contract case matrix: every probability
// engine, shared/private/inverted-rail cones, and a penalized
// fractional-cap library — the same surfaces the cone-table exactness
// test covers — plus the area term set under the default and a narrow
// library.
func stateCases() []struct {
	name     string
	net      *logic.Network
	lib      domino.Library
	opts     power.Options
	newTable tableFunc
} {
	type tc = struct {
		name     string
		net      *logic.Network
		lib      domino.Library
		opts     power.Options
		newTable tableFunc
	}
	var cases []tc
	for _, m := range []struct {
		name string
		opts power.Options
	}{
		{"auto", power.Options{}},
		{"approx", power.Options{Method: power.Approximate}},
		{"depth", power.Options{Method: power.LimitedDepth, Depth: 3}},
	} {
		cases = append(cases,
			tc{"shared/" + m.name, sharedConeNet(), domino.DefaultLibrary(), m.opts, power.NewConeTable},
			tc{"rails/" + m.name, invertedRailNet(), domino.DefaultLibrary(), m.opts, power.NewConeTable},
			tc{"private/" + m.name, privateConesNet(), domino.DefaultLibrary(), m.opts, power.NewConeTable},
			tc{"shared/fancy/" + m.name, sharedConeNet(), fancyLibrary(), m.opts, power.NewConeTable},
		)
	}
	for _, p := range []gen.Params{
		{Name: "st6", Inputs: 10, Outputs: 6, Gates: 70, Seed: 101, OrProb: 0.6},
		{Name: "st9", Inputs: 12, Outputs: 9, Gates: 100, Seed: 103, OrProb: 0.45},
	} {
		net := gen.Generate(p).Optimize()
		cases = append(cases,
			tc{p.Name + "/auto", net, domino.DefaultLibrary(), power.Options{}, power.NewConeTable},
			tc{p.Name + "/fancy/approx", net, fancyLibrary(), power.Options{Method: power.Approximate}, power.NewConeTable},
			tc{p.Name + "/area", net, domino.DefaultLibrary(), power.Options{}, areaTable},
			tc{p.Name + "/area/narrow", net, narrowLibrary(), power.Options{}, areaTable})
	}
	for _, n := range []*logic.Network{sharedConeNet(), invertedRailNet(), privateConesNet()} {
		cases = append(cases, tc{n.Name + "/area/narrow", n, narrowLibrary(), power.Options{}, areaTable})
	}
	return cases
}

// TestScoreStateFlipMatchesScoreAssignment is the incremental contract:
// after ANY sequence of flips (and mid-sequence Sets), the state's score
// equals ScoreAssignment of the reached assignment bit-for-bit — not
// within a tolerance. This is what lets every strategy treat flip-path
// scores as pure functions of the assignment.
func TestScoreStateFlipMatchesScoreAssignment(t *testing.T) {
	for _, c := range stateCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			probs := testProbs(c.net)
			table, err := c.newTable(c.net, c.lib, probs, c.opts)
			if err != nil {
				t.Fatalf("table: %v", err)
			}
			k := c.net.NumOutputs()
			rng := rand.New(rand.NewSource(int64(k) * 7919))
			st := table.NewState()
			asg := make(phase.Assignment, k)
			if _, err := st.Set(asg); err != nil {
				t.Fatalf("Set: %v", err)
			}
			for step := 0; step < 600; step++ {
				var got float64
				if step%97 == 42 {
					// Mid-sequence Set to a random assignment.
					for i := range asg {
						asg[i] = rng.Intn(2) == 1
					}
					got, err = st.Set(asg)
					if err != nil {
						t.Fatalf("step %d: Set: %v", step, err)
					}
				} else {
					bit := rng.Intn(k)
					asg[bit] = !asg[bit]
					got = st.Flip(bit)
				}
				want, err := table.ScoreAssignment(asg)
				if err != nil {
					t.Fatalf("step %d: ScoreAssignment: %v", step, err)
				}
				if got != want {
					t.Fatalf("step %d (%s): state score %v != ScoreAssignment %v (bit-for-bit contract)",
						step, asg, got, want)
				}
				if st.Score() != got {
					t.Fatalf("step %d: Score() %v != last flip %v", step, st.Score(), got)
				}
			}
		})
	}
}

// TestScoreStateIndependence pins that states minted from one table do
// not interfere: minted and flipped on several goroutines at once while
// the shared table scores the same assignments (run it under -race), and
// interleaved on one goroutine.
func TestScoreStateIndependence(t *testing.T) {
	net := gen.Generate(gen.Params{Name: "ind", Inputs: 10, Outputs: 6, Gates: 60, Seed: 7, OrProb: 0.5}).Optimize()
	probs := testProbs(net)
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc phase.AssignmentScorer = table
	if _, ok := sc.(phase.StateScorer); !ok {
		t.Fatal("cone table does not advertise StateScorer")
	}
	if _, ok := sc.(phase.BoundScorer); !ok {
		t.Fatal("cone table does not advertise BoundScorer")
	}
	k := net.NumOutputs()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			st := table.NewState()
			asg := make(phase.Assignment, k)
			if _, err := st.Set(asg); err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 200; step++ {
				bit := rng.Intn(k)
				asg[bit] = !asg[bit]
				got := st.Flip(bit)
				want, err := table.ScoreAssignment(asg)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want || st.Score() != want {
					t.Errorf("seed %d, step %d: concurrent state %v != ScoreAssignment %v", seed, step, got, want)
					return
				}
			}
		}(int64(3 + g))
	}
	wg.Wait()

	s1, s2 := table.NewState(), table.NewState()
	a1, a2 := make(phase.Assignment, k), make(phase.Assignment, k)
	if _, err := s1.Set(a1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Set(a2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 200; step++ {
		bit := rng.Intn(k)
		if step%2 == 0 {
			a1[bit] = !a1[bit]
			s1.Flip(bit)
		} else {
			a2[bit] = !a2[bit]
			s2.Flip(bit)
		}
		w1, _ := table.ScoreAssignment(a1)
		w2, _ := table.ScoreAssignment(a2)
		if s1.Score() != w1 || s2.Score() != w2 {
			t.Fatalf("step %d: interleaved states drifted: (%v,%v) != (%v,%v)",
				step, s1.Score(), s2.Score(), w1, w2)
		}
	}
}

// TestScoreStateMultiWord covers the >64-output (multi-word signature)
// path with a 70-output network.
func TestScoreStateMultiWord(t *testing.T) {
	n := logic.New("wide70")
	ins := make([]logic.NodeID, 12)
	for i := range ins {
		ins[i] = n.AddInput(fmt.Sprintf("i%02d", i))
	}
	rng := rand.New(rand.NewSource(11))
	for o := 0; o < 70; o++ {
		a, b := ins[rng.Intn(len(ins))], ins[rng.Intn(len(ins))]
		g := n.AddOr(a, n.AddNot(b))
		if o%3 == 0 {
			g = n.AddAnd(g, ins[rng.Intn(len(ins))])
		}
		n.MarkOutput(fmt.Sprintf("o%02d", o), g)
	}
	net := n.Optimize()
	k := net.NumOutputs()
	if k <= 64 {
		t.Fatalf("twin has %d outputs, want > 64", k)
	}
	probs := testProbs(net)
	table, err := power.NewConeTable(net, domino.DefaultLibrary(), probs, power.Options{Method: power.Approximate})
	if err != nil {
		t.Fatal(err)
	}
	st := table.NewState()
	asg := make(phase.Assignment, k)
	if _, err := st.Set(asg); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		bit := rng.Intn(k)
		asg[bit] = !asg[bit]
		got := st.Flip(bit)
		want, err := table.ScoreAssignment(asg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d bit %d: %v != %v", step, bit, got, want)
		}
	}
}

// TestBoundStateAdmissibleAndExact drives random Decide/Undo walks: the
// bound at any prefix must not exceed the score of any random
// completion of that prefix, must be reproducible after undo/redo, and
// at full depth must equal ScoreAssignment bit-for-bit.
func TestBoundStateAdmissibleAndExact(t *testing.T) {
	for _, c := range stateCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			probs := testProbs(c.net)
			table, err := c.newTable(c.net, c.lib, probs, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			k := c.net.NumOutputs()
			rng := rand.New(rand.NewSource(int64(k) + 1))
			pb := table.NewBound()
			asg := make(phase.Assignment, k)
			for trial := 0; trial < 30; trial++ {
				depth := rng.Intn(k + 1)
				bounds := make([]float64, 0, depth)
				for d := 0; d < depth; d++ {
					neg := rng.Intn(2) == 1
					asg[k-1-d] = neg
					bounds = append(bounds, pb.Decide(neg))
				}
				// Admissible: no completion scores below the bound.
				if depth > 0 {
					bound := bounds[depth-1]
					for completion := 0; completion < 20; completion++ {
						for i := 0; i < k-depth; i++ {
							asg[i] = rng.Intn(2) == 1
						}
						score, err := table.ScoreAssignment(asg)
						if err != nil {
							t.Fatal(err)
						}
						if score < bound {
							t.Fatalf("trial %d: completion %s scores %v below bound %v",
								trial, asg, score, bound)
						}
					}
				}
				// Extend to full depth: the bound becomes the exact score.
				for d := depth; d < k; d++ {
					neg := rng.Intn(2) == 1
					asg[k-1-d] = neg
					bounds = append(bounds, pb.Decide(neg))
				}
				want, err := table.ScoreAssignment(asg)
				if err != nil {
					t.Fatal(err)
				}
				if got := bounds[k-1]; got != want {
					t.Fatalf("trial %d: full-depth bound %v != ScoreAssignment %v", trial, got, want)
				}
				// Bounds are monotone nondecreasing along the prefix when
				// no negative constants exist (default libraries).
				for d := 1; d < k; d++ {
					if bounds[d] < bounds[d-1]-1e-12 && c.lib.AndPenalty >= 0 {
						t.Fatalf("trial %d: bound regressed %v -> %v at depth %d",
							trial, bounds[d-1], bounds[d], d)
					}
				}
				// Undo everything; redoing the same walk must reproduce the
				// same bounds (state fully restored).
				for d := 0; d < k; d++ {
					pb.Undo()
				}
				for d := 0; d < k; d++ {
					if got := pb.Decide(asg[k-1-d]); got != bounds[d] {
						t.Fatalf("trial %d: redo bound at depth %d: %v != %v", trial, d, got, bounds[d])
					}
				}
				for d := 0; d < k; d++ {
					pb.Undo()
				}
			}
		})
	}
}
