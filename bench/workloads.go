package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/report"
)

// runOptions are one run's settings.
type runOptions struct {
	seed   int64
	window time.Duration // how long the run measures
	traced bool
}

// workloads are the benchmark's workloads by name; README.md records why
// each exists. Every corpus workload runs one circuit at a time with a
// single-worker flow (dominoflow's corpus convention), so a gain on any
// circuit shows up in its wall time and the two CPUs of the reference
// box stay free of co-scheduling noise.
var workloads = map[string]func(runOptions) (*result, error){
	// The paper's Table 1: seven twins, untimed flow, default
	// configuration (4096 measurement vectors). MP search is ~70% of it.
	"table1": corpusSpec{twins: gen.Table1Circuits, paper: true}.run,
	// The paper's Table 2: the four public twins through the timed flow,
	// the only workload that resizes and re-simulates.
	"table2": corpusSpec{twins: gen.Table2Circuits, timed: true, paper: true}.run,
	// The budgeted degradation chain: the exact engine under a 20000-node
	// BDD budget with the reorder-and-retry stage (BENCH_9's
	// configuration), where BDD building and the chain dominate and the
	// MinPower search is capped at 24 pairs.
	"budgeted": corpusSpec{twins: budgetedTwins, cfg: budgetedConfig()}.run,
	// The dominod service mix (serve.go).
	"serve": runServe,
}

func budgetedTwins() []gen.NamedCircuit {
	return []gen.NamedCircuit{gen.Apex7(), gen.Frg1(), gen.X1(), gen.Industry2(), gen.X3(), gen.X4()}
}

// budgetedConfig is BENCH_9's configuration, except for the measurement
// vectors: BENCH_9 uses 256, whose Monte-Carlo noise moves the Average
// %PwrSav by ~2% between seeds. The flow's default 4096 cuts that
// four-fold for well under 1% of the wall time.
func budgetedConfig() flow.Config {
	return flow.Config{
		SimVectors:    4096,
		SimShards:     2,
		MaxPairs:      24,
		EstOpts:       power.Options{Method: power.Exact, Depth: 3, MaxFrontier: 8},
		BDDNodeBudget: 20000,
	}
}

// corpusSpec is a corpus workload: a twin set run through flow.RunCorpus
// under one configuration.
type corpusSpec struct {
	twins func() []gen.NamedCircuit
	cfg   flow.Config
	timed bool
	// paper reports paper_gap_pp at seed 0, where the rows are the
	// paper's circuits.
	paper bool
}

// run sets the corpus up, then runs whole passes over it until the next
// pass would overrun the window (at least one), checks every row of the
// first pass with the equivalence gate and every later pass against the
// first, and reports the median pass.
func (s corpusSpec) run(o runOptions) (*result, error) {
	cf, setupSecs, err := repeatSetup(func() (*corpusFiles, error) {
		return writeCorpus(s.twins)
	}, (*corpusFiles).remove)
	if err != nil {
		return nil, err
	}
	defer cf.remove()
	res := newResult()
	res.set("setup_s", setupSecs)
	base := s.cfg
	base.Workers = 1
	// The seed draws the Monte-Carlo measurement vectors; seed 0 is the
	// flow's default stimulus.
	base.SimSeed = o.seed
	cc := flow.CorpusConfig{Base: base, Timed: s.timed, Workers: 1}

	if o.traced {
		rows, err := traceEntries(res, cf.entries, cc)
		if err != nil {
			return nil, err
		}
		checkRows(res, cf.entries, rows)
		for _, m := range []string{"serve.cache_hit_ratio", "serve.flow_runs", "serve.rejected_429"} {
			res.set(m, 0)
		}
		return res, nil
	}

	var walls, peaks []float64
	var first []*flow.CorpusRow
	var firstRecs []report.CorpusRecord
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+secs(walls[len(walls)-1]) <= o.window {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		rows, err := flow.RunCorpus(context.Background(), cf.entries, cc)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		recs := deterministicRecords(rows)
		if first == nil {
			first, firstRecs = rows, recs
			continue
		}
		res.attempted += len(rows)
		for _, r := range rows {
			if r.Err != "" {
				res.failed++
			}
		}
		if !reflect.DeepEqual(recs, firstRecs) {
			res.problem("pass %d produced different rows than pass 1", len(walls))
		}
	}
	log.Printf("pass walls (s): %.4g", walls)
	checkRows(res, cf.entries, first)

	wall := median(walls)
	res.set("wall_s", wall)
	res.set("p50_ms", 1000*wall)
	res.set("samples", float64(len(walls)))
	res.set("peak_rss_mb", median(peaks))
	setQuality(res, first)
	if s.paper && o.seed == 0 {
		res.set("paper_gap_pp", s.paperGap(first))
	}
	return res, nil
}

// checkRows runs the equivalence gate on every row of one pass.
func checkRows(res *result, entries []corpus.Entry, rows []*flow.CorpusRow) {
	for i, r := range rows {
		res.attempted++
		if r.Err != "" {
			res.failed++
			continue
		}
		if err := checkRow(entries[i], r); err != nil {
			res.problem("%s: %v", r.Name, err)
		}
	}
}

// setQuality sets the paper's Average line over a pass's rows.
func setQuality(res *result, rows []*flow.CorpusRow) {
	var done []*flow.Row
	for _, r := range rows {
		if r.Row != nil {
			done = append(done, r.Row)
		}
	}
	areaPen, pwrSav := flow.Averages(done)
	res.set("area_pen_pct", areaPen)
	res.set("pwr_sav_pct", pwrSav)
}

// paperGap is the mean |%PwrSav - paper %PwrSav| over the rows.
func (s corpusSpec) paperGap(rows []*flow.CorpusRow) float64 {
	paper := make(map[string]float64)
	for _, c := range s.twins() {
		paper[c.FileName()] = c.PaperPwrSav
	}
	gap, n := 0.0, 0
	for _, r := range rows {
		if r.Row != nil {
			gap += math.Abs(r.Row.PowerSavingPct - paper[r.Name])
			n++
		}
	}
	return gap / float64(n)
}

// deterministicRecords projects rows onto their JSONL records without
// the wall-clock field, for comparing passes.
func deterministicRecords(rows []*flow.CorpusRow) []report.CorpusRecord {
	recs := make([]report.CorpusRecord, len(rows))
	for i, r := range rows {
		recs[i] = report.NewCorpusRecord(r)
		recs[i].WallSec = 0
	}
	return recs
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak resident set count (VmHWM) at the current resident set, so the
// next peakRSSMB covers only the work in between, starting from the
// same clean heap every time.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
