package flow_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/report"
)

// Small hand-written corpus members: fast to synthesize (<= 3 outputs
// keeps every search exhaustive-feasible) yet covering both formats and
// the sequential path.
const corpusCombBLIF = `.model comb
.inputs a b c d
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names c d g
10 1
01 1
.end
`

const corpusSeqBLIF = `.model counter
.inputs en
.outputs q0
.latch n0 q0 0
.names en q0 n0
10 1
01 1
.end
`

const corpusPLA = `.i 3
.o 2
.ilb x y z
.ob p q
11- 10
-11 01
1-1 11
.e
`

func writeCorpus(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func testCorpusConfig() flow.Config {
	return flow.Config{SimVectors: 128, SimShards: 2, Workers: 1}
}

func runTestCorpus(t *testing.T, dir string, cc flow.CorpusConfig) []*flow.CorpusRow {
	t.Helper()
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flow.RunCorpus(context.Background(), entries, cc)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRunCorpusWorkerInvariance(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"comb.blif":    corpusCombBLIF,
		"counter.blif": corpusSeqBLIF,
		"twolevel.pla": corpusPLA,
	})
	var reference []*flow.CorpusRow
	for _, workers := range []int{1, 2, 8} {
		rows := runTestCorpus(t, dir, flow.CorpusConfig{Base: testCorpusConfig(), Workers: workers})
		for _, r := range rows {
			if r.Err != "" {
				t.Fatalf("workers=%d: %s failed: %s", workers, r.Name, r.Err)
			}
			r.WallSec = 0 // wall-clock is exempt from the determinism contract
		}
		if reference == nil {
			reference = rows
			continue
		}
		if !reflect.DeepEqual(reference, rows) {
			for i := range rows {
				if !reflect.DeepEqual(reference[i], rows[i]) {
					t.Errorf("workers=%d: row %d (%s) differs from workers=1", workers, i, rows[i].Name)
				}
			}
		}
	}
	// The latched model must have gone through the sequential flow.
	for _, r := range reference {
		if r.Name == "counter" && (!r.Sequential || r.Row == nil || r.Row.FFs != 1) {
			t.Errorf("latched model not routed through the sequential flow: %+v", r)
		}
		if r.Name != "counter" && r.Row == nil {
			t.Errorf("combinational row %s missing Table-1 result", r.Name)
		}
	}
}

func TestRunCorpusErrorIsolation(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"a_good.blif":  corpusCombBLIF,
		"b_bad.blif":   ".model broken\n.inputs a\n.outputs f\n.names g f\n.banana\n.end",
		"c_empty.blif": "",
		"d_good.pla":   corpusPLA,
	})
	rows := runTestCorpus(t, dir, flow.CorpusConfig{Base: testCorpusConfig(), Workers: 4})
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if rows[0].Err != "" || rows[0].Row == nil {
		t.Errorf("good row sunk by corrupt neighbors: %+v", rows[0])
	}
	if rows[1].Err == "" || !strings.Contains(rows[1].Err, "b_bad.blif") {
		t.Errorf("corrupt file error not isolated: %q", rows[1].Err)
	}
	if rows[2].Err == "" {
		t.Error("empty file did not error")
	}
	if rows[3].Err != "" || rows[3].Row == nil {
		t.Errorf("good PLA row sunk: %+v", rows[3])
	}
}

// TestRunCorpusPanicIsolation: a panic inside one circuit's flow is
// recovered into that circuit's error row; its neighbours complete.
func TestRunCorpusPanicIsolation(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"a.blif":       corpusCombBLIF,
		"b_panic.blif": corpusCombBLIF,
		"c.pla":        corpusPLA,
	})
	rows := runTestCorpus(t, dir, flow.CorpusConfig{
		Base:    testCorpusConfig(),
		Workers: 2,
		Configure: func(c *corpus.Circuit, base flow.Config) flow.Config {
			if c.Entry.Name == "b_panic" {
				panic("configured panic in " + c.Entry.Name)
			}
			return base
		},
	})
	if !strings.Contains(rows[1].Err, "panic") || rows[1].TimedOut {
		t.Errorf("panic not isolated into an error row: %+v", rows[1])
	}
	for _, i := range []int{0, 2} {
		if rows[i].Err != "" || rows[i].Row == nil {
			t.Errorf("neighbour %s sunk by the panic: %+v", rows[i].Name, rows[i])
		}
	}
}

func TestRunCorpusStreamsInIndexOrder(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"a.blif": corpusCombBLIF,
		"b.pla":  corpusPLA,
		"c.blif": corpusCombBLIF,
		"d.pla":  corpusPLA,
	})
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []int
	rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
		Base:    testCorpusConfig(),
		Workers: 4,
		OnRow:   func(r *flow.CorpusRow) { streamed = append(streamed, r.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(rows) {
		t.Fatalf("streamed %d of %d rows", len(streamed), len(rows))
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("stream order %v is not index order", streamed)
		}
	}
}

func TestRunCorpusTimeout(t *testing.T) {
	dir := writeCorpus(t, map[string]string{"slow.blif": corpusCombBLIF})
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
		Base:    testCorpusConfig(),
		Timeout: 20 * time.Millisecond,
		Configure: func(c *corpus.Circuit, base flow.Config) flow.Config {
			time.Sleep(500 * time.Millisecond) // stand-in for a hung circuit
			return base
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Err == "" || !strings.Contains(rows[0].Err, "timeout") {
		t.Errorf("overlong circuit not timed out: %+v", rows[0])
	}
}

// TestRunCorpusTimeoutLeaksNoGoroutines is the regression test for the
// goroutine-abandonment bug: before cooperative cancellation, a timed
// out circuit's flow goroutine kept running (pinned in the sim loop) and
// RunCorpus simply stopped waiting for it. Each of the N timed-out jobs
// below leaked one goroutine under the old scheme; now the timeout
// cancels the budget token, the kernel observes it at the next poll
// window, and the goroutine count returns to baseline.
func TestRunCorpusTimeoutLeaksNoGoroutines(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"s1.blif": corpusCombBLIF,
		"s2.pla":  corpusPLA,
	})
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const runs = 4
	for i := 0; i < runs; i++ {
		rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
			Base:    testCorpusConfig(),
			Workers: 2,
			Timeout: 30 * time.Millisecond,
			Configure: func(c *corpus.Circuit, base flow.Config) flow.Config {
				// Pin the circuit in the sim loop so only
				// cancellation can end it.
				base.SimVectors = 1 << 30
				return base
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !r.TimedOut {
				t.Fatalf("run %d: pinned circuit %s did not time out: %+v", i, r.Name, r)
			}
		}
	}
	// Cancellation is cooperative, so allow the workers a few poll
	// windows to unwind before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d after %d timed-out corpus runs",
				baseline, runtime.NumGoroutine(), runs)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestRunCorpusPerCircuitOverrides(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"a.blif": corpusCombBLIF,
		"b.pla":  corpusPLA,
	})
	entries, err := corpus.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Configure runs on the corpus workers, concurrently.
	var mu sync.Mutex
	seen := make(map[string]bool)
	_, err = flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
		Base: testCorpusConfig(),
		Configure: func(c *corpus.Circuit, base flow.Config) flow.Config {
			mu.Lock()
			seen[c.Entry.Name] = true
			mu.Unlock()
			if c.Entry.Format == corpus.FormatPLA {
				base.SimVectors = 64
			}
			return base
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("Configure not called per circuit: %v", seen)
	}
}

func TestCorpusRecordProjection(t *testing.T) {
	dir := writeCorpus(t, map[string]string{
		"comb.blif":    corpusCombBLIF,
		"counter.blif": corpusSeqBLIF,
		"nope.blif":    ".model x\n.outputs f\n.end",
	})
	rows := runTestCorpus(t, dir, flow.CorpusConfig{Base: testCorpusConfig()})
	var b strings.Builder
	for _, r := range rows {
		if err := report.WriteCorpusJSONL(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"ma_size"`) || !strings.Contains(lines[0], `"name":"comb"`) {
		t.Errorf("combinational record wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"sequential":true`) || !strings.Contains(lines[1], `"ffs":1`) {
		t.Errorf("sequential record wrong: %s", lines[1])
	}
	// A sequential record reports no interface and no criticals, and
	// omits met_timing, although its Row's syntheses carry criticals.
	var seqRec report.CorpusRecord
	if err := json.Unmarshal([]byte(lines[1]), &seqRec); err != nil {
		t.Fatal(err)
	}
	if seqRec.PIs != 0 || seqRec.POs != 0 || seqRec.MACritical != 0 || seqRec.MPCritical != 0 ||
		strings.Contains(lines[1], `"met_timing"`) {
		t.Errorf("sequential record should read pis, pos and criticals 0 without met_timing: %s", lines[1])
	}
	if seq := rows[1].Row; seq == nil || seq.MA.Critical <= 0 || seq.PIs != 0 {
		t.Errorf("sequential Row should carry criticals and no interface: %+v", seq)
	}
	if !strings.Contains(lines[0], `"met_timing":true`) || strings.Contains(lines[0], `"pis":0`) {
		t.Errorf("combinational record should carry pis and met_timing: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"error"`) {
		t.Errorf("error record wrong: %s", lines[2])
	}
	table := report.CorpusTable("corpus", rows)
	for _, want := range []string{"comb", "counter", "failed", "nope.blif"} {
		if !strings.Contains(table, want) {
			t.Errorf("corpus table missing %q:\n%s", want, table)
		}
	}
}

// TestSimVectorBudgetTripsOncePerSynthesis pins how often a row's
// measurement trips the sim vector budget: every synthesis is simulated
// exactly once, so a row clamped below its SimVectors counts one trip per
// synthesis — two, MA and MP — in the untimed and the timed flow alike.
// (The timed flow used to simulate each synthesis before resizing as
// well, and counted four.)
func TestSimVectorBudgetTripsOncePerSynthesis(t *testing.T) {
	src, err := blif.WriteString(&blif.Model{Network: gen.Frg1().Net})
	if err != nil {
		t.Fatal(err)
	}
	entries := []corpus.Entry{{Path: "frg1.blif", Name: "frg1", Format: corpus.FormatBLIF, Data: []byte(src)}}
	for _, timed := range []bool{false, true} {
		rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
			Base:  flow.Config{SimVectors: 4096, SimVectorBudget: 256, Workers: 1},
			Timed: timed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Err != "" {
			t.Fatalf("timed=%v: error row: %s", timed, r.Err)
		}
		if r.BudgetTrips != 2 {
			t.Errorf("timed=%v: BudgetTrips = %d, want 2 (one vector clamp per synthesis)", timed, r.BudgetTrips)
		}
	}
}
