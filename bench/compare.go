package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// loadRecords reads every *.json result record in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no *.json result records", dir)
	}
	recs := make([]record, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Verdicts of one metric on one workload, A (the parent) against B
// (the change).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-" // per-layer and record-only metrics have no bound
)

// absoluteFloor is, per metric, a move in the metric's unit that never
// counts as a change: setup_s may worsen by its bound or by 0.2 s,
// whichever is larger, so that a set-up of a few milliseconds reads
// neither worse nor unresolved on jitter alone.
var absoluteFloor = map[string]float64{"setup_s": 0.2}

// judge compares B's runs of a metric with A's. change is the relative
// move of the median, positive when B is worse. A metric is worse when
// the change exceeds the bound, and unresolved when either side's
// quartile spread exceeds the bound — unless every run of B beats every
// run of A.
func judge(a, b []float64, better string, bound float64, hasBound bool) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	if better == "higher" {
		change = -change
	}
	if ma == mb {
		change = 0
	}
	if !hasBound {
		return change, verdictNoBound
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	allBetter := extremes(b, better).max < extremes(a, better).min
	switch {
	case spread(a) > bound || spread(b) > bound:
		if allBetter {
			return change, verdictBetter
		}
		return change, verdictUnresolved
	case change > bound:
		return change, verdictWorse
	case change < -bound:
		return change, verdictBetter
	}
	return change, verdictSame
}

// oriented is the extreme runs of a metric with "lower is better"
// orientation (values negated for higher-is-better metrics).
type oriented struct{ min, max float64 }

func extremes(xs []float64, better string) oriented {
	o := oriented{math.Inf(1), math.Inf(-1)}
	for _, x := range xs {
		if better == "higher" {
			x = -x
		}
		o.min, o.max = math.Min(o.min, x), math.Max(o.max, x)
	}
	return o
}

// compareDirs compares the result records of two directories, A (the
// parent) and B (the change): per workload, every metric's median and
// quartiles on each side, the change of the median and the verdict
// against BENCHMARK.json's bound, then one summary row per workload. It
// reports whether any metric is worse.
func compareDirs(w io.Writer, def *definition, dirA, dirB string) (bool, error) {
	recsA, err := loadRecords(dirA)
	if err != nil {
		return false, err
	}
	recsB, err := loadRecords(dirB)
	if err != nil {
		return false, err
	}
	type group struct {
		workload string
		trace    int
	}
	values := func(recs []record) (map[group]map[string][]float64, map[group][]int64) {
		out := make(map[group]map[string][]float64)
		seeds := make(map[group][]int64)
		for _, r := range recs {
			g := group{r.Workload, r.Trace}
			if out[g] == nil {
				out[g] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				out[g][name] = append(out[g][name], v.Value)
			}
			seeds[g] = append(seeds[g], r.Seed)
		}
		for _, s := range seeds {
			slices.Sort(s)
		}
		return out, seeds
	}
	va, seedsA := values(recsA)
	vb, seedsB := values(recsB)
	var groups []group
	for g := range va {
		if vb[g] == nil {
			continue
		}
		// A seed's inputs are part of what a metric measures, so both
		// sides must have run the same seeds.
		if !slices.Equal(seedsA[g], seedsB[g]) {
			return false, fmt.Errorf("%s (trace %d): A ran seeds %v, B ran seeds %v; compare runs of the same seeds",
				g.workload, g.trace, seedsA[g], seedsB[g])
		}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", dirA, dirB)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].trace < groups[j].trace
	})

	anyWorse := false
	summary := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(summary, "workload\ttrace\truns A\truns B\tworse\tunresolved\tbetter\tsame")
	for _, g := range groups {
		a, b := va[g], vb[g]
		runsA, runsB := len(a["error_rate"]), len(b["error_rate"])
		fmt.Fprintf(w, "\n== %s (trace %d): A %s, B %s\n", g.workload, g.trace, dirA, dirB)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
		counts := make(map[string]int)
		for _, d := range catalog {
			if a[d.Name] == nil || b[d.Name] == nil {
				continue
			}
			bound, hasBound := def.bound(d.Name)
			if floor, ok := absoluteFloor[d.Name]; ok && hasBound {
				bound = math.Max(bound, floor/math.Abs(median(a[d.Name])))
			}
			change, verdict := judge(a[d.Name], b[d.Name], d.Better, bound, hasBound)
			counts[verdict]++
			if verdict == verdictWorse {
				anyWorse = true
			}
			boundText := "-"
			if hasBound {
				boundText = fmt.Sprintf("%.4g%%", 100*bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", d.Name, d.Unit,
				spreadText(a[d.Name]), spreadText(b[d.Name]), 100*change, boundText, verdict)
		}
		if err := tw.Flush(); err != nil {
			return false, err
		}
		fmt.Fprintf(summary, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", g.workload, g.trace, runsA, runsB,
			counts[verdictWorse], counts[verdictUnresolved], counts[verdictBetter], counts[verdictSame])
	}
	fmt.Fprintln(w)
	return anyWorse, summary.Flush()
}

func spreadText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}
