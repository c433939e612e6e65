package bdd

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/logic"
)

// xorChain builds an n-input XOR chain, whose BDD has 2n-1 internal
// nodes under any order — a predictable node count for budget tests.
func xorChain(inputs int) *logic.Network {
	n := logic.New("xorchain")
	acc := n.AddInput("x0")
	for i := 1; i < inputs; i++ {
		acc = n.AddXor(acc, n.AddInput("x"+string(rune('0'+i))))
	}
	n.MarkOutput("f", acc)
	return n
}

// TestBuildNetworkBadOrderReturnsError: a malformed order from a future
// config knob must come back as an error row, not a trapped panic. The
// order is fixed when the build's manager is constructed, so the
// boundary is NewWithOrder under CatchInterrupt, as the production
// callers construct it.
func TestBuildNetworkBadOrderReturnsError(t *testing.T) {
	n := xorChain(4)
	cases := map[string][]int{
		"wrong length":      {0, 1, 2},
		"repeated variable": {0, 1, 1, 3},
		"out of range":      {0, 1, 2, 9},
		"negative":          {0, -1, 2, 3},
	}
	for name, order := range cases {
		var m *Manager
		err := CatchInterrupt(func() { m = NewWithOrder(n.NumInputs(), order) })
		if err == nil || m != nil {
			t.Errorf("%s: NewWithOrder accepted order %v", name, order)
			continue
		}
		if !strings.Contains(err.Error(), "order") {
			t.Errorf("%s: error %q does not mention the order", name, err)
		}
	}
	// A valid non-natural order still builds: the XOR chain has 2n-1
	// internal nodes under any order.
	m := NewWithOrder(4, []int{3, 1, 0, 2})
	nb, err := BuildNetwork(m, n, nil)
	if err != nil {
		t.Fatalf("valid order: %v", err)
	}
	if got := m.NodeCount(nb.OutputRefs(n)...); got != 7 {
		t.Fatalf("valid order: %d nodes, want 7", got)
	}
}

// TestBuildNetworkNodeBudget: a build exceeding the node budget returns
// an error matching budget.ErrBDDNodes, and a generous budget does not
// perturb the build.
func TestBuildNetworkNodeBudget(t *testing.T) {
	n := xorChain(8) // 15 internal nodes
	tok := budget.New(4, 0)
	m := New(8)
	m.SetBudget(tok)
	if _, err := BuildNetwork(m, n, nil); !errors.Is(err, budget.ErrBDDNodes) {
		t.Fatalf("tiny budget: err = %v, want ErrBDDNodes", err)
	}
	if tok.BDDTrips() != 1 {
		t.Fatalf("BDDTrips = %d, want 1", tok.BDDTrips())
	}
	// A budget trip does not cancel the token; the tripped manager is
	// dropped and a fresh one retries under a looser budget (the
	// degradation chain's contract).
	m = New(8)
	m.SetBudget(budget.New(1000, 0))
	nb, err := BuildNetwork(m, n, nil)
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	ref, err2 := BuildNetwork(New(n.NumInputs()), n, nil)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got, want := m.NodeCount(nb.OutputRefs(n)...), ref.Manager.NodeCount(ref.OutputRefs(n)...); got != want {
		t.Fatalf("budgeted build node count %d != unbudgeted %d", got, want)
	}
}

// TestBuildNetworkCancellation: a cancelled token aborts the build with
// an error matching budget.ErrCancelled.
func TestBuildNetworkCancellation(t *testing.T) {
	n := xorChain(8)
	tok := budget.New(0, 0)
	tok.Cancel(nil)
	m := New(8)
	m.SetBudget(tok)
	// The cancellation poll fires every cancelPollInterval inserts; a
	// 15-node build may finish under it, so loop builds until observed.
	for i := 0; i < cancelPollInterval; i++ {
		if _, err := BuildNetwork(m, n, nil); err != nil {
			if !errors.Is(err, budget.ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			return
		}
	}
	t.Fatal("cancelled token never aborted a build")
}

// TestCatchInterrupt: the helper converts typed interrupts to errors
// and lets foreign panics through.
func TestCatchInterrupt(t *testing.T) {
	if err := CatchInterrupt(func() {}); err != nil {
		t.Fatalf("clean build: %v", err)
	}
	want := errors.New("boom")
	if err := CatchInterrupt(func() { Interrupt(want) }); !errors.Is(err, want) {
		t.Fatalf("Interrupt: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	_ = CatchInterrupt(func() { panic("foreign") })
}
