package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
)

// metricKind says where a metric is reported: on the result line of an
// untraced run (endToEnd), on the result line of a traced run
// (perLayer), or only in the -out record (extra: workload-specific
// numbers that cannot be measured on every workload, so the result line,
// which must carry the same metrics for every workload, leaves them out).
type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
	extra
)

// metricDef names one metric with its unit and direction. The endToEnd
// and perLayer entries must match BENCHMARK.json exactly (bench_test.go
// checks it).
type metricDef struct {
	Name, Unit, Better string
	Kind               metricKind
}

// tracedLayers are the layer calls the traced run times; each gets a
// "<layer>_s"-style time (see layerTimeMetric) and a "<layer>.alloc_mb".
var tracedLayers = []string{
	"corpus.load", "flow.prepare", "phase.ma_search", "power.cone_table",
	"phase.mp_search", "domino.map", "power.estimate", "sim.run", "timing",
}

// layerTimeMetric names a traced layer's busy-time metric.
func layerTimeMetric(layer string) string {
	if layer == "timing" {
		return "timing.s"
	}
	return layer + "_s"
}

// chainStages names the degradation-chain stages in chain order, as the
// traced run reports them.
var chainStages = []string{"configured", "exact_sifted", "depth_weighted", "monte_carlo"}

// catalog lists every metric the benchmark reports, in report order.
var catalog = buildCatalog()

func buildCatalog() []metricDef {
	c := []metricDef{
		{"wall_s", "s", "lower", endToEnd},
		{"p50_ms", "ms", "lower", endToEnd},
		{"setup_s", "s", "lower", endToEnd},
		{"peak_rss_mb", "MB", "lower", endToEnd},
		{"pwr_sav_pct", "%", "higher", endToEnd},
		{"area_pen_pct", "%", "lower", endToEnd},

		{"samples", "count", "higher", extra},
		{"error_rate", "ratio", "lower", extra},
		{"paper_gap_pp", "pp", "lower", extra},
		{"jobs_per_s", "1/s", "higher", extra},
		{"cached_n", "count", "higher", extra},
		{"cached_p50_ms", "ms", "lower", extra},
		{"cached_p99_ms", "ms", "lower", extra},
		{"cold_n", "count", "higher", extra},
		{"cold_p50_s", "s", "lower", extra},
		{"cold_p90_s", "s", "lower", extra},
	}
	for _, l := range tracedLayers {
		c = append(c, metricDef{layerTimeMetric(l), "s", "lower", perLayer})
	}
	c = append(c,
		metricDef{"phase.ma_evals", "count", "lower", perLayer},
		metricDef{"power.cone_groups", "count", "lower", perLayer},
		metricDef{"phase.mp_trials", "count", "lower", perLayer},
		metricDef{"phase.mp_commits", "count", "lower", perLayer},
		metricDef{"phase.mp_rank_cands", "count", "lower", perLayer},
		metricDef{"domino.cells", "count", "lower", perLayer},
		metricDef{"sim.gate_evals", "count", "lower", perLayer},
		metricDef{"sim.skip_rate", "ratio", "higher", perLayer},
		metricDef{"timing.resize_steps", "count", "lower", perLayer},
	)
	for _, st := range chainStages {
		c = append(c, metricDef{"flow.chain." + st + "_pct", "%", "lower", perLayer})
	}
	c = append(c,
		metricDef{"flow.chain_wasted_pct", "%", "lower", perLayer},
		metricDef{"flow.chain_useful_ratio", "ratio", "higher", perLayer},
		metricDef{"budget.trips", "count", "lower", perLayer},
		metricDef{"flow.degraded_rows", "count", "lower", perLayer},
		metricDef{"serve.cache_hit_ratio", "ratio", "higher", perLayer},
		metricDef{"serve.flow_runs", "count", "lower", perLayer},
		metricDef{"serve.rejected_429", "count", "lower", perLayer},
	)
	for _, l := range tracedLayers {
		c = append(c, metricDef{l + ".alloc_mb", "MB", "lower", perLayer})
	}
	return append(c,
		metricDef{"trace.coverage_pct", "%", "higher", perLayer},
		metricDef{"trace_overhead_pct", "%", "lower", perLayer},
	)
}

// lookupMetric returns the catalog entry of a metric name.
func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// result is what one workload run measured: how many operations it
// attempted and how many failed, every correctness check that failed,
// the metric values, and (traced runs) the spans.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	spans             []span
}

func newResult() *result { return &result{values: make(map[string]float64)} }

// set records a metric value; the name must be in the catalog.
func (r *result) set(name string, v float64) {
	if _, ok := lookupMetric(name); !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.values[name] = v
}

// problem records a failed correctness check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failures counts failed operations plus failed correctness checks.
func (r *result) failures() int { return r.failed + len(r.problems) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line the benchmark prints last.
type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine builds the result line from every catalog metric of the
// given kind; a metric the run did not measure is an error.
func resultLine(r *result, kind metricKind) (resultJSON, error) {
	line := resultJSON{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failures(),
		Metrics:   make(map[string]metricValue),
	}
	if r.attempted < 1 {
		return line, fmt.Errorf("the run attempted no operation")
	}
	for _, d := range catalog {
		if d.Kind != kind {
			continue
		}
		v, ok := r.values[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return line, nil
}

// allMetrics is every measured value with its unit, plus error_rate —
// the metrics of the -out record.
func (r *result) allMetrics() map[string]metricValue {
	out := make(map[string]metricValue, len(r.values)+1)
	for name, v := range r.values {
		d, _ := lookupMetric(name)
		out[name] = metricValue{v, d.Unit}
	}
	if r.attempted > 0 {
		out["error_rate"] = metricValue{float64(r.failures()) / float64(r.attempted), "ratio"}
	}
	return out
}

// record is one run's result file: the shape of a benchmark ledger
// entry (git rev, GOMAXPROCS, CPU count, seed, workload, metrics).
type record struct {
	GitRev     string                 `json:"git_rev"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"nproc"`
	Seed       int64                  `json:"seed"`
	Workload   string                 `json:"workload"`
	Trace      int                    `json:"trace"`
	Seconds    int                    `json:"seconds"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// logSummary prints a record's metrics to standard error in catalog
// order.
func logSummary(rec record) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d trace=%d: attempted=%d failed=%d correct=%v rev=%s GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct, rec.GitRev, rec.GOMAXPROCS)
	for _, d := range catalog {
		if v, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(&b, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	log.Print(strings.TrimRight(b.String(), "\n"))
}

// definition is the part of BENCHMARK.json the program reads: the
// metric names, units, directions and bounds.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// bound returns an end-to-end metric's regression bound.
func (d *definition) bound(name string) (float64, bool) {
	for _, m := range d.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}

// median is the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spreads printed here match the ones a Python reader
// computes. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-th percentile of xs and
// whether at least minBeyond samples lie beyond it — a tail percentile
// without that many samples past it is not reported.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return sortedCopy(xs)[rank-1], n-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
