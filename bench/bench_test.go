package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/power"
)

func smallTwins() []gen.NamedCircuit {
	return []gen.NamedCircuit{gen.Apex7(), gen.Frg1(), gen.X1()}
}

// TestTracedRunMatchesProduction is the composition-drift gate: the
// traced rebuild of apex7, frg1 and x1 must reproduce flow.RunCorpus's
// rows exactly under the untimed flow, the timed flow and a budget small
// enough to walk the degradation chain, and its spans must cover the
// traced row wall.
func TestTracedRunMatchesProduction(t *testing.T) {
	cases := []struct {
		name  string
		cfg   flow.Config
		timed bool
	}{
		{"untimed", flow.Config{SimVectors: 512}, false},
		{"timed", flow.Config{SimVectors: 512}, true},
		{"budgeted", flow.Config{
			SimVectors: 256, SimShards: 2, MaxPairs: 24, BDDNodeBudget: 300,
			EstOpts: power.Options{Method: power.Exact, Depth: 3, MaxFrontier: 8},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cf, err := writeCorpus(smallTwins)
			if err != nil {
				t.Fatal(err)
			}
			defer cf.remove()
			tc.cfg.Workers = 1
			res := newResult()
			rows, err := traceEntries(res, cf.entries, flow.CorpusConfig{Base: tc.cfg, Timed: tc.timed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkRows(res, cf.entries, rows)
			for _, p := range res.problems {
				t.Error(p)
			}
			if res.failed > 0 {
				t.Errorf("%d failed rows", res.failed)
			}
			if tc.cfg.BDDNodeBudget > 0 && res.values["budget.trips"] == 0 {
				t.Error("the budgeted case never tripped the BDD budget, so the chain went unexercised")
			}
			if tc.timed && res.values["timing.resize_steps"] == 0 {
				t.Error("the timed case never resized")
			}
		})
	}
}

// TestCheckSynthesisCatchesWrongBlock: the equivalence gate must reject
// a synthesis whose boundary no longer implements the circuit.
func TestCheckSynthesisCatchesWrongBlock(t *testing.T) {
	cf, err := writeCorpus(func() []gen.NamedCircuit { return []gen.NamedCircuit{gen.Frg1()} })
	if err != nil {
		t.Fatal(err)
	}
	defer cf.remove()
	rows, err := flow.RunCorpus(t.Context(), cf.entries, flow.CorpusConfig{Base: flow.Config{SimVectors: 256, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRow(cf.entries[0], rows[0]); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}
	outs := rows[0].Row.MP.Block.Phase.Outputs
	outs[0].Negated = !outs[0].Negated
	if err := checkRow(cf.entries[0], rows[0]); err == nil {
		t.Fatal("a flipped output boundary inverter passed the equivalence gate")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},   // rank 90, 10 beyond
		{99, 90, 90, false},   // rank ceil(89.1) = 90, 9 beyond
		{1000, 99, 990, true}, // rank 990, 10 beyond
		{999, 99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{20, 50, 10, true},    // rank 10, 10 beyond
		{1, 99, 1, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("p%v of 1..%d = %v (ok=%v), want %v (ok=%v)", tc.p, tc.n, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestQuartilesMatchPython pins median and quartiles to Python's
// statistics.median and statistics.quantiles(n=4) on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{1.5, 2.5, 4, 7, 11}, 2, 4, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := median(tc.xs); med != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: quartiles %v/%v/%v, want %v/%v/%v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON: the metrics the program emits on its
// result lines are exactly the ones BENCHMARK.json defines, with the
// same units and directions, and its workloads are the program's.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	emitted := func(kind metricKind) []m {
		var out []m
		for _, d := range catalog {
			if d.Kind == kind {
				out = append(out, m{d.Name, d.Unit, d.Better})
			}
		}
		return out
	}
	var e2e, layer []m
	for _, d := range def.EndToEnd {
		e2e = append(e2e, m{d.Name, d.Unit, d.Better})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range def.PerLayer {
		layer = append(layer, m{d.Name, d.Unit, d.Better})
	}
	if got := emitted(endToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics:\n program %v\n BENCHMARK.json %v", got, e2e)
	}
	if got := emitted(perLayer); !slices.Equal(got, layer) {
		t.Errorf("per-layer metrics:\n program %v\n BENCHMARK.json %v", got, layer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	if bound, ok := def.bound("setup_s"); !ok || bound < maxBound(def) {
		t.Errorf("setup_s bound %v must be the largest", bound)
	}
}

func maxBound(def *definition) float64 {
	b := 0.0
	for _, d := range def.EndToEnd {
		b = math.Max(b, d.Bound)
	}
	return b
}

// TestResultLineNeedsEveryMetric: a run that misses a metric of its kind
// must not print a result line.
func TestResultLineNeedsEveryMetric(t *testing.T) {
	res := newResult()
	res.attempted = 1
	for _, d := range catalog {
		if d.Kind == endToEnd && d.Name != "p50_ms" {
			res.set(d.Name, 1)
		}
	}
	if _, err := resultLine(res, endToEnd); err == nil {
		t.Fatal("result line printed without p50_ms")
	}
	res.set("p50_ms", 2)
	line, err := resultLine(res, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has keys %v, want exactly correct/attempted/failed/metrics", back)
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		a, b   []float64
		better string
		want   string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10.1, 10.3}, "lower", verdictSame},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", verdictWorse},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "lower", verdictBetter},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "higher", verdictWorse},
		{[]float64{5, 10, 15}, []float64{10, 10, 10}, "lower", verdictUnresolved},
		{[]float64{5, 10, 15}, []float64{1, 2, 3}, "lower", verdictBetter},
	} {
		if _, got := judge(tc.a, tc.b, tc.better, 0.1, true); got != tc.want {
			t.Errorf("%v -> %v (%s is better): %s, want %s", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

// TestCompareSetupFloorAndSeeds: -compare lets setup_s worsen by its
// 0.2 s floor without a verdict, still flags a wall_s regression, and
// refuses two sides that ran different seeds.
func TestCompareSetupFloorAndSeeds(t *testing.T) {
	def := &definition{}
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), def); err != nil {
		t.Fatal(err)
	}
	write := func(dir string, seeds []int64, setup, wall float64) {
		for _, s := range seeds {
			rec := record{Seed: s, Workload: "table2", Metrics: map[string]metricValue{
				"setup_s": {setup, "s"}, "wall_s": {wall, "s"}, "error_rate": {0, "ratio"},
			}}
			if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%d.json", s)), rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds := []int64{1, 2, 3}
	a, b := t.TempDir(), t.TempDir()
	write(a, seeds, 0.005, 1)
	write(b, seeds, 0.010, 1) // +100%, but 5 ms
	var out strings.Builder
	if worse, err := compareDirs(&out, def, a, b); err != nil || worse {
		t.Fatalf("a 5 ms set-up change: worse=%v err=%v\n%s", worse, err, out.String())
	}
	write(b, seeds, 0.005, 1.5)
	if worse, err := compareDirs(&out, def, a, b); err != nil || !worse {
		t.Fatalf("a 50%% wall_s regression: worse=%v err=%v", worse, err)
	}
	c := t.TempDir()
	write(c, []int64{4, 5, 6}, 0.005, 1)
	if _, err := compareDirs(&out, def, a, c); err == nil {
		t.Fatal("runs of different seeds were compared")
	}
}

// TestServeRound drives one round of the service mix through a real
// loopback server with both clients, and checks every outcome and the
// direct re-run of the sampled submissions.
func TestServeRound(t *testing.T) {
	svc, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	outs := svc.round(schedule(rand.New(rand.NewSource(1)), len(svc.files.entries)))
	if len(outs) != roundCold+roundCached {
		t.Fatalf("%d outcomes, want %d", len(outs), roundCold+roundCached)
	}
	cold := 0
	for _, out := range outs {
		if err := checkOutcome(out, svc.files.entries[out.sub.entry].Name); err != nil {
			t.Error(err)
		}
		if out.sub.cold {
			cold++
		}
	}
	if cold != roundCold {
		t.Errorf("%d cold submissions, want %d", cold, roundCold)
	}
	res := newResult()
	if err := checkSamples(res, svc.files, outs); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Error(p)
	}
	if res.attempted != roundCold+sampleChecks {
		t.Errorf("checked %d sampled submissions, want %d", res.attempted, roundCold+sampleChecks)
	}
}
