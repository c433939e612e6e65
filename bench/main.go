// Command bench is the repository benchmark. It runs one workload of the
// paper's flow — the Table 1 corpus, the Table 2 timed corpus, the
// budgeted degradation-chain corpus, or the dominod service mix — for a
// fixed time, checks every result against an independent interpreter,
// and prints one JSON result line (the last line of standard output):
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// It drives only public entry points (flow.RunCorpus on generated BLIF
// files, serve.NewServer over loopback HTTP), so it measures the program
// from outside. With -trace 1 a separate run rebuilds every row from the
// flow's public layer calls, times each call, and reports the per-layer
// metrics instead of the end-to-end ones. -compare A B compares two
// directories of result records written with -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "", "workload to run: table1, table2, budgeted or serve")
	seed := flag.Int64("seed", 0, "input seed: the corpus workloads' measurement SimSeed; serve's submission order and cold SimSeeds (circuits are the paper twins for every seed)")
	seconds := flag.Int("seconds", 15, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", "", "also write the result record (the ledger shape) to this file")
	spans := flag.String("spans", "", "traced runs: write the spans as JSONL to this file")
	compare := flag.Bool("compare", false, "compare two directories of -out records: bench -compare A B")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds (for -compare)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: bench -compare A B")
		}
		def, err := loadDefinition(*benchmark)
		if err != nil {
			log.Fatal(err)
		}
		worse, err := compareDirs(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	run, ok := workloads[*workload]
	if !ok {
		log.Fatalf("unknown workload %q (want table1, table2, budgeted or serve)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds < 1 {
		log.Fatalf("-seconds %d: want at least 1", *seconds)
	}

	opts := runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := run(opts)
	if err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	if opts.traced && *spans != "" {
		if err := writeSpans(*spans, res.spans); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range res.problems {
		log.Printf("%s: FAILED CHECK: %s", *workload, p)
	}
	kind := endToEnd
	if opts.traced {
		kind = perLayer
	}
	line, err := resultLine(res, kind)
	if err != nil {
		log.Fatal(err)
	}
	rec := record{
		GitRev:     gitRev(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       *seed,
		Workload:   *workload,
		Trace:      *trace,
		Seconds:    *seconds,
		Correct:    line.Correct,
		Attempted:  line.Attempted,
		Failed:     line.Failed,
		Metrics:    res.allMetrics(),
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			log.Fatal(err)
		}
	}
	logSummary(rec)
	enc, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(enc))
	if !line.Correct || line.Failed > 0 {
		os.Exit(1)
	}
}

// gitRev is the VCS revision the binary was built from (stamped by go
// build inside a git checkout), or "unknown".
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
