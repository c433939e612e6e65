// Command genbench writes the synthetic benchmark twins to BLIF files so
// they can be inspected or fed to other tools (and back into powerest /
// bddorder), followed by dominoflow -seq's default sequential set
// (seq0, seq1, …) as latched BLIF, which the corpus engine routes
// through the sequential flow.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genbench: ")
	dir := flag.String("dir", "benchmarks", "output directory")
	only := flag.String("only", "", "comma-separated circuit names to emit (e.g. apex7,frg1,x1,seq0); empty = all")
	flag.Parse()

	filter := make(map[string]bool)
	for _, n := range corpus.SplitList(strings.ToLower(*only)) {
		filter[n] = true
	}
	filtering := len(filter) > 0

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	emit := func(name string, m *blif.Model) {
		if filtering && !filter[name] {
			return
		}
		delete(filter, name)
		path := filepath.Join(*dir, name+".blif")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := blif.Write(f, m); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		n := m.Network
		fmt.Printf("%-24s %4d PIs %4d POs %5d gates %3d FFs\n", path,
			n.NumInputs()-len(m.Latches), n.NumOutputs()-len(m.Latches), n.GateCount(), len(m.Latches))
	}
	for _, c := range gen.KnownCircuits() {
		emit(c.FileName(), &blif.Model{Network: c.Net})
	}
	for _, p := range gen.SeqSet(gen.DefaultSeqFFs, gen.DefaultSeqCount) {
		emit(p.Name, gen.SequentialModel(p))
	}
	// Unmatched names are errors, not silent coverage shrink — the
	// corpussmoke gate relies on every requested circuit being emitted.
	if len(filter) > 0 {
		var missing []string
		for n := range filter {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		log.Fatalf("-only names match no circuit: %s", strings.Join(missing, ", "))
	}
}
