package flow_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sop"
)

// TestFactorNetworkGoldens pins the resynthesized networks node for
// node: the SHA-256 of Network.String() of sop.FactorNetwork on three
// prepared twins at three support limits, captured from the per-output
// rebuild-and-Minimize implementation this single pass replaced.
func TestFactorNetworkGoldens(t *testing.T) {
	golden := map[string]string{
		"frg1/8":   "a807dc10865ab34e0687c1d98697a0acb306f985bb3ffa3a643138c8f477c9cf",
		"frg1/12":  "a807dc10865ab34e0687c1d98697a0acb306f985bb3ffa3a643138c8f477c9cf",
		"frg1/14":  "a807dc10865ab34e0687c1d98697a0acb306f985bb3ffa3a643138c8f477c9cf",
		"apex7/8":  "ae152b93cc288e7a1bf86cd0349a229adb3f6d0192ab69c716dd961bd490f5dc",
		"apex7/12": "3b3cc63fd5d27be571a8c923fbbb13166b32b06ecf9d18d6bad8b6b4e5356926",
		"apex7/14": "690cdc5d92dbc9d69bef415adf85d068045cd9704cfb885bb924ebac1a51ab4a",
		"x1/8":     "f569712146e61b9613a70d6cd4c19800dfc5861de9ecd1d8c28bc7b97ef179e3",
		"x1/12":    "f569712146e61b9613a70d6cd4c19800dfc5861de9ecd1d8c28bc7b97ef179e3",
		"x1/14":    "f569712146e61b9613a70d6cd4c19800dfc5861de9ecd1d8c28bc7b97ef179e3",
	}
	for _, c := range []gen.NamedCircuit{gen.Frg1(), gen.Apex7(), gen.X1()} {
		n := flow.Prepare(c.Net)
		for _, lim := range []int{8, 12, 14} {
			f, err := sop.FactorNetwork(n, lim, nil)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", c.Name, lim)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(f.String()))); got != golden[key] {
				t.Errorf("%s: network hash %s, want %s", key, got, golden[key])
			}
		}
	}
}

// TestResynthesizeRowsPinned pins the Resynthesize rows of apex7 and x1:
// sizes exactly, powers to 1e-9 relative.
func TestResynthesizeRowsPinned(t *testing.T) {
	type pin struct {
		size          int
		simPwr, estPw float64
	}
	want := map[string][2]pin{
		"apex7": {{262, 214.186279296875, 213.86922753941033}, {272, 207.107666015625, 206.30466234225989}},
		"x1":    {{173, 133.4736328125, 133.47826012073133}, {174, 131.0380859375, 131.08748416517014}},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	for _, c := range []gen.NamedCircuit{gen.Apex7(), gen.X1()} {
		r, err := flow.RunCircuit(c, flow.Config{Resynthesize: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range []flow.Synthesis{r.MA, r.MP} {
			w := want[c.Name][i]
			if s.Size != w.size || !near(s.SimPower, w.simPwr) || !near(s.EstPower, w.estPw) {
				t.Errorf("%s %s: Size %d SimPower %v EstPower %v, want %d %v %v",
					c.Name, []string{"MA", "MP"}[i], s.Size, s.SimPower, s.EstPower, w.size, w.simPwr, w.estPw)
			}
		}
	}
}

// memEntry serializes a network as an in-memory BLIF corpus entry.
func memEntry(t *testing.T, name string, net *logic.Network) corpus.Entry {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, &blif.Model{Network: net}); err != nil {
		t.Fatal(err)
	}
	return corpus.Entry{Path: name + ".blif", Name: name, Format: corpus.FormatBLIF, Data: buf.Bytes()}
}

// parity returns a single-output XOR of width inputs.
func parity(width int) *logic.Network {
	n := logic.New("parity")
	acc := n.AddInput("x0")
	for i := 1; i < width; i++ {
		acc = n.AddXor(acc, n.AddInput(fmt.Sprintf("x%d", i)))
	}
	n.MarkOutput("p", acc)
	return n
}

// TestResynthesisHonoursTimeout: the collapse build and the ISOP
// extraction poll the row's token, so a per-circuit timeout ends a
// Resynthesize row promptly — on Industry 2, whose one collapse build
// alone runs for seconds, and on a 20-input parity output, whose BDD is
// tiny but whose ISOP cover has 2^19 cubes.
func TestResynthesisHonoursTimeout(t *testing.T) {
	cases := []struct {
		entry corpus.Entry
		cfg   flow.Config
	}{
		{memEntry(t, "industry2", gen.Industry2().Net), flow.Config{Resynthesize: true}},
		{memEntry(t, "parity20", parity(20)), flow.Config{Resynthesize: true, MaxCollapseSupport: 20}},
	}
	for _, tc := range cases {
		start := time.Now()
		rows, err := flow.RunCorpus(context.Background(), []corpus.Entry{tc.entry}, flow.CorpusConfig{
			Base: tc.cfg, Workers: 1, Timeout: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); !rows[0].TimedOut || wall > 2*time.Second {
			t.Errorf("%s: TimedOut=%v after %v (err %q), want a timeout row within 2s",
				tc.entry.Name, rows[0].TimedOut, wall, rows[0].Err)
		}
	}
}

// TestResynthesisBudgetErrorRowDeterministic: a BDD node budget the
// collapse build exceeds trips every stage of the degradation chain
// (the collapse runs before any engine choice), ending in one error row
// whose text, engine and trip count are the same at any worker count
// and on a repeat run — so the cache may store it.
func TestResynthesisBudgetErrorRowDeterministic(t *testing.T) {
	entries := []corpus.Entry{
		memEntry(t, "apex7", gen.Apex7().Net),
		memEntry(t, "frg1", gen.Frg1().Net),
		memEntry(t, "x1", gen.X1().Net),
	}
	var first []*flow.CorpusRow
	for _, workers := range []int{1, 2, 2} {
		cfg := flow.Config{Resynthesize: true, BDDNodeBudget: 100, SimVectors: 256, Workers: workers}
		rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{Base: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			r.WallSec = 0
			if r.TimedOut || r.Row != nil || r.Engine != flow.EngineMonteCarlo || r.BudgetTrips != 4 ||
				!strings.Contains(r.Err, "resynthesis: BDD node budget exceeded") {
				t.Fatalf("workers %d: %s: row %+v, want the resynthesis budget error after 4 trips", workers, r.Name, r)
			}
		}
		if first == nil {
			first = rows
		} else if !reflect.DeepEqual(rows, first) {
			t.Errorf("workers %d: rows differ from the first run", workers)
		}
	}
}
