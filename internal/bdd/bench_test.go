package bdd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/logic"
)

// bddBenchNet is a mid-size synthetic network built locally (the gen
// package transitively imports bdd, so the shared generators are off
// limits here). The BDD build cost is dominated by unique-table and
// memo-cache traffic, which is exactly what the map-free engine
// targets.
func bddBenchNet() *logic.Network {
	rng := rand.New(rand.NewSource(77))
	n := logic.New("bddbench")
	var ids []logic.NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, n.AddInput(fmt.Sprintf("x%d", i)))
	}
	pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
	for g := 0; g < 260; g++ {
		switch rng.Intn(5) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1, 2:
			ids = append(ids, n.AddAnd(pick(), pick()))
		case 3:
			ids = append(ids, n.AddOr(pick(), pick(), pick()))
		default:
			ids = append(ids, n.AddOr(pick(), pick()))
		}
	}
	for i := 0; i < 8; i++ {
		n.MarkOutput(fmt.Sprintf("f%d", i), ids[len(ids)-1-i])
	}
	return n
}

// BenchmarkBDDBuild measures a full shared-forest construction over every
// network node — the hot loop of prob.Exact and power.Estimate.
func BenchmarkBDDBuild(b *testing.B) {
	n := bddBenchNet()
	b.ReportAllocs()
	var nodes int
	for i := 0; i < b.N; i++ {
		nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes = nb.Manager.Size()
	}
	b.ReportMetric(float64(nodes), "bdd_nodes")
}

// BenchmarkReorder measures one in-place sifting pass over the bench
// network's forest, built in natural order into a fresh manager before
// each pass (untimed) — the kernel of the exact engine's
// reorder-and-retry stage.
func BenchmarkReorder(b *testing.B) {
	n := bddBenchNet()
	var m *Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m = New(n.NumInputs())
		if _, err := BuildNetwork(m, n, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Reorder(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.LiveNodes()), "live_nodes")
}

// BenchmarkReorderDisjoint measures one in-place sifting pass over 25
// disjoint 4-input blocks (100 variables, 10 gates each; addBlocks),
// built under a random order into a fresh manager before each pass
// (untimed). Variables of different blocks never interact, so most of
// the pass's swaps only exchange two levels — the case
// BenchmarkReorder's almost fully interacting net cannot show.
func BenchmarkReorderDisjoint(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := logic.New("disjoint")
	addBlocks(n, rng, 25, 4, 10)
	order := rng.Perm(n.NumInputs())
	var m *Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m = NewWithOrder(n.NumInputs(), order)
		if _, err := BuildNetwork(m, n, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Reorder(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.LiveNodes()), "live_nodes")
}

// BenchmarkAutoReorderBudgeted measures TestAutoReorderPinned's build:
// randomNetwork seed 2 (20 inputs, 300 gates) built under a 2,000-node
// budget with auto-reorder on, so the cost is the reorder schedule's
// sifts plus the build between them — the kernel behind bench
// `budgeted`'s exact-sifted stage. It reports the reorders per build
// and the live nodes the build ends with.
func BenchmarkAutoReorderBudgeted(b *testing.B) {
	n := randomNetwork(rand.New(rand.NewSource(2)), 20, 300)
	var m *Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = New(n.NumInputs())
		m.SetBudget(budget.New(2000, 0))
		m.SetAutoReorder(true)
		if _, err := BuildNetwork(m, n, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Reorders()), "reorders/op")
	b.ReportMetric(float64(m.LiveNodes()), "live_nodes")
}

// BenchmarkBDDProbability measures the linear-pass probability evaluation
// over a prebuilt forest (the per-candidate cost inside phase.MinPower).
func BenchmarkBDDProbability(b *testing.B) {
	n := bddBenchNet()
	nb, err := BuildNetwork(New(n.NumInputs()), n, nil)
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Manager.ProbabilityMany(nb.NodeRefs, probs)
	}
}
