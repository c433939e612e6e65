// Command dominoflow runs the paper's synthesis flows and prints
// Table 1 / Table 2 in the paper's layout.
//
// By default it runs the generated benchmark twins. With -blif, -pla, or
// -dir it instead streams real circuit files through the concurrent
// corpus engine: every .blif/.pla file found is parsed, latched models
// are routed through the partitioned sequential flow (like -seq), and
// the batch runs circuits concurrently with per-circuit error isolation
// — a corrupt file yields an error row, never a failed batch. Rows are
// deterministic at any -workers count; -jsonl streams them as they
// finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dominoflow: ")
	table := flag.Int("table", 1, "paper table to regenerate (1 or 2); in corpus mode, 2 selects the timed flow")
	circuit := flag.String("circuit", "", "run a single named circuit (e.g. frg1)")
	vectors := flag.Int("vectors", 4096, "Monte-Carlo measurement vectors")
	maxPairs := flag.Int("maxpairs", 0, "cap MinPower candidate pairs (0 = all)")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	verbose := flag.Bool("v", false, "log per-circuit progress")
	seqMode := flag.Bool("seq", false, "run the sequential flow (enhanced-MFVS partitioning + phase assignment) on generated sequential circuits")
	seqFFs := flag.Int("seqffs", gen.DefaultSeqFFs, "flip-flop count for -seq circuits")
	seqCount := flag.Int("seqcount", gen.DefaultSeqCount, "number of -seq circuits")
	blifFiles := flag.String("blif", "", "comma-separated BLIF files to run through the corpus engine")
	plaFiles := flag.String("pla", "", "comma-separated PLA files to run through the corpus engine")
	dir := flag.String("dir", "", "comma-separated directories (or glob patterns) of .blif/.pla files to run through the corpus engine")
	workers := flag.Int("workers", 0, "corpus mode: how many circuits run concurrently (0 = GOMAXPROCS); never changes results")
	timeout := flag.Duration("timeout", 0, "corpus mode: per-circuit wall-clock cap (0 = none)")
	jsonl := flag.String("jsonl", "", "corpus mode: stream result rows as JSONL to this file ('-' for stdout)")
	checkTwins := flag.Bool("check-twins", false, "corpus mode: rerun circuits whose names match generated twins through the direct in-memory flow and fail on row disagreement (the corpussmoke gate)")
	flag.Parse()

	if *table != 1 && *table != 2 {
		log.Fatalf("unknown table %d", *table)
	}

	cfg := flow.Config{SimVectors: *vectors, MaxPairs: *maxPairs}

	if *seqMode {
		runSequential(cfg, *seqFFs, *seqCount, *verbose)
		return
	}

	var paths []string
	for _, list := range []string{*blifFiles, *plaFiles, *dir} {
		paths = append(paths, corpus.SplitList(list)...)
	}
	if len(paths) > 0 {
		runCorpus(cfg, paths, corpusOptions{
			timed:      *table == 2,
			workers:    *workers,
			timeout:    *timeout,
			jsonl:      *jsonl,
			csv:        *csv,
			verbose:    *verbose,
			checkTwins: *checkTwins,
		})
		return
	}

	circuits := gen.Table1Circuits()
	if *table == 2 {
		circuits = gen.Table2Circuits()
	}
	if *circuit != "" {
		var filtered []gen.NamedCircuit
		for _, c := range circuits {
			if c.Name == *circuit {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			log.Fatalf("no circuit named %q in table %d", *circuit, *table)
		}
		circuits = filtered
	}

	var rows []*flow.Row
	for _, c := range circuits {
		start := time.Now()
		var row *flow.Row
		var err error
		if *table == 1 {
			row, err = flow.RunCircuit(c, cfg)
		} else {
			row, err = flow.RunCircuitTimed(c, cfg)
		}
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		if *verbose {
			log.Printf("%-12s done in %v (MA %d cells / %.2f, MP %d cells / %.2f)",
				c.Name, time.Since(start).Round(time.Millisecond),
				row.MA.Size, row.MA.SimPower, row.MP.Size, row.MP.SimPower)
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Table %d: synthesis with PI signal probabilities 0.5", *table)
	if *table == 2 {
		title = "Table 2: timed synthesis (resizing) with PI signal probabilities 0.5"
	}
	if *csv {
		fmt.Print(report.CSV(rows))
	} else {
		fmt.Print(report.Table(title, rows))
	}
	os.Exit(0)
}

type corpusOptions struct {
	timed      bool
	workers    int
	timeout    time.Duration
	jsonl      string
	csv        bool
	verbose    bool
	checkTwins bool
}

// runCorpus streams discovered circuit files through the concurrent
// corpus engine and prints the batch report. It exits non-zero when any
// circuit failed (the batch itself always completes) or when
// -check-twins finds a disagreement.
func runCorpus(cfg flow.Config, paths []string, opts corpusOptions) {
	entries, err := corpus.Discover(paths...)
	if err != nil {
		log.Fatal(err)
	}
	if len(entries) == 0 {
		log.Fatal("no .blif/.pla files found")
	}
	// Parallelism lives at the circuit grain; each circuit's flow runs
	// single-worker so concurrent circuits don't oversubscribe the CPU.
	// Neither knob changes results.
	cfg.Workers = 1

	var jw io.Writer
	if opts.jsonl == "-" {
		jw = os.Stdout
	} else if opts.jsonl != "" {
		f, err := os.Create(opts.jsonl)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jw = f
	}

	start := time.Now()
	rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{
		Base:    cfg,
		Timed:   opts.timed,
		Workers: opts.workers,
		Timeout: opts.timeout,
		OnRow: func(r *flow.CorpusRow) {
			if opts.verbose {
				status := "ok"
				if r.Err != "" {
					status = r.Err
				}
				log.Printf("%-20s done in %6.2fs (%s)", r.Name, r.WallSec, status)
			}
			if jw != nil {
				if err := report.WriteCorpusJSONL(jw, r); err != nil {
					log.Fatal(err)
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	flowName := "untimed (Table 1) flow"
	if opts.timed {
		flowName = "timed (Table 2) flow"
	}
	title := fmt.Sprintf("Corpus: %d circuit(s) through the %s in %.1fs",
		len(rows), flowName, time.Since(start).Seconds())
	if opts.csv {
		// CSV carries only combinational rows; sequential and failed
		// rows go to stderr so they are never silently dropped.
		var comb []*flow.Row
		seqCount := 0
		for _, r := range rows {
			switch {
			case r.Err != "": // listed below
			case r.Sequential:
				seqCount++
			default:
				comb = append(comb, r.Row)
			}
		}
		fmt.Print(report.CSV(comb))
		if seqCount > 0 {
			log.Printf("%d sequential circuit(s) omitted from CSV (use -jsonl for the full batch)", seqCount)
		}
		for _, r := range rows {
			if r.Err != "" {
				log.Printf("failed: %s: %s", r.Path, r.Err)
			}
		}
	} else {
		fmt.Print(report.CorpusTable(title, rows))
	}

	failed := 0
	for _, r := range rows {
		if r.Err != "" {
			failed++
		}
	}
	if opts.checkTwins && !checkTwins(rows, cfg, opts.timed) {
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// checkTwins is the corpussmoke gate: every corpus row whose file name
// matches a generated twin (as emitted by genbench) is recomputed with
// the direct in-memory flow and the two rows must agree — sizes exactly,
// measured/estimated power to float-noise tolerance (the BLIF round trip
// may reorder nodes, which can reorder float summation without changing
// any value materially).
func checkTwins(rows []*flow.CorpusRow, cfg flow.Config, timed bool) bool {
	twins := make(map[string]gen.NamedCircuit)
	for _, c := range gen.KnownCircuits() {
		twins[c.FileName()] = c
	}
	checked, ok := 0, true
	for _, r := range rows {
		twin, found := twins[r.Name]
		if !found {
			continue
		}
		checked++
		if r.Err != "" {
			log.Printf("check-twins: %s: corpus row failed: %s", r.Name, r.Err)
			ok = false
			continue
		}
		if r.Sequential {
			log.Printf("check-twins: %s: no combinational row", r.Name)
			ok = false
			continue
		}
		var direct *flow.Row
		var err error
		if timed {
			direct, err = flow.RunCircuitTimed(twin, cfg)
		} else {
			direct, err = flow.RunCircuit(twin, cfg)
		}
		if err != nil {
			log.Printf("check-twins: %s: direct flow failed: %v", r.Name, err)
			ok = false
			continue
		}
		ok = compareRows(r.Name, r.Row, direct) && ok
	}
	if checked == 0 {
		log.Print("check-twins: no corpus row matched a generated twin")
		return false
	}
	if ok {
		log.Printf("check-twins: %d twin row(s) agree with the direct flow", checked)
	}
	return ok
}

func compareRows(name string, got, want *flow.Row) bool {
	ok := true
	fail := func(format string, args ...any) {
		log.Printf("check-twins: %s: "+format, append([]any{name}, args...)...)
		ok = false
	}
	if got.PIs != want.PIs || got.POs != want.POs {
		fail("interface %d/%d, want %d/%d", got.PIs, got.POs, want.PIs, want.POs)
	}
	if got.MA.Size != want.MA.Size {
		fail("MA size %d, want %d", got.MA.Size, want.MA.Size)
	}
	if got.MP.Size != want.MP.Size {
		fail("MP size %d, want %d", got.MP.Size, want.MP.Size)
	}
	const tol = 1e-9
	closeEnough := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for _, c := range []struct {
		what     string
		got, wnt float64
	}{
		{"MA measured power", got.MA.SimPower, want.MA.SimPower},
		{"MP measured power", got.MP.SimPower, want.MP.SimPower},
		{"MA estimated power", got.MA.EstPower, want.MA.EstPower},
		{"MP estimated power", got.MP.EstPower, want.MP.EstPower},
	} {
		if !closeEnough(c.got, c.wnt) {
			fail("%s %.12g, want %.12g", c.what, c.got, c.wnt)
		}
	}
	return ok
}

// runSequential exercises the Section 4.2 sequential pipeline on
// generated circuits and prints MA/MP rows — an experiment beyond the
// paper's tables (the paper measures combinational blocks after
// partitioning; here the partitioning itself is automated).
func runSequential(cfg flow.Config, ffs, count int, verbose bool) {
	var rows []*flow.Row
	for _, p := range gen.SeqSet(ffs, count) {
		c, err := gen.Sequential(p)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		row, err := flow.RunSequential(c, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if verbose {
			log.Printf("%s done in %v", row.Name, time.Since(start).Round(time.Millisecond))
		}
		rows = append(rows, row)
	}
	fmt.Print(report.SequentialTable(
		"Sequential flow: enhanced-MFVS partition + steady-state probabilities + phase assignment", rows))
}
