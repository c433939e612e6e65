package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
)

// loadtestTwin is the 24-PI/12-PO payload dominod -loadtest generates
// by default: small enough that a cold job takes a fraction of a second,
// and its 12 outputs put the MA baseline on the exhaustive 2^12 search.
func loadtestTwin() gen.NamedCircuit {
	return gen.FromNetwork("loadtest", "Synthetic (service payload)", gen.Generate(gen.Params{
		Name: "loadtest", Inputs: 24, Outputs: 12, Gates: 200, Seed: 0x10AD, OrProb: 0.6,
	}))
}

// corpusFiles is one set-up of a workload's inputs: the generated BLIF
// files and their corpus entries, in a directory of their own.
type corpusFiles struct {
	dir     string
	entries []corpus.Entry
	data    map[string][]byte // file bytes by entry name
}

// writeCorpus generates the circuits and writes each as <name>.blif into
// a fresh temporary directory.
func writeCorpus(twins func() []gen.NamedCircuit) (*corpusFiles, error) {
	dir, err := os.MkdirTemp("", "bench-corpus-")
	if err != nil {
		return nil, err
	}
	cf := &corpusFiles{dir: dir, data: make(map[string][]byte)}
	for _, c := range twins() {
		s, err := blif.WriteString(&blif.Model{Network: c.Net})
		if err != nil {
			cf.remove()
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		cf.data[c.FileName()] = []byte(s)
		if err := os.WriteFile(filepath.Join(dir, c.FileName()+".blif"), []byte(s), 0o644); err != nil {
			cf.remove()
			return nil, err
		}
	}
	if cf.entries, err = corpus.Discover(dir); err != nil {
		cf.remove()
		return nil, err
	}
	return cf, nil
}

func (cf *corpusFiles) remove() { os.RemoveAll(cf.dir) }

// A run sets its workload up at least setupReps times and until the
// set-ups have taken setupMinTotal; setup_s is the median, so one slow
// set-up does not move it. The corpus set-ups take milliseconds, so they
// get a hundred or more samples; the service's, about a second, get
// setupReps.
const (
	setupReps     = 7
	setupMinTotal = 500 * time.Millisecond
)

// repeatSetup runs setup as often as the constants above say, tearing
// down all but the last result, and returns the last result with the
// median set-up time.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	var total time.Duration
	for len(times) < setupReps || total < setupMinTotal {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			if len(times) > 0 {
				teardown(last)
			}
			return v, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if len(times) > 1 {
			teardown(last)
		}
		last = v
	}
	return last, median(times), nil
}

// checkVectors is how many seeded random vectors the equivalence check
// simulates per synthesis.
const checkVectors = 4096

// checkSynthesis is the independent correctness gate of one synthesis:
// on checkVectors seeded random vectors, the parsed input network must
// agree output for output with (a) the phase result's reconstruction
// (block plus boundary inverters, phase.Result.Reconstructed) and (b)
// the mapped domino block's own network driven through the boundary the
// block records (inverted input rails, negated outputs). Both sides are
// evaluated by logic.Network.EvalWide, a plain interpreter that shares
// no code with phase assignment or domino mapping.
func checkSynthesis(orig *logic.Network, syn *flow.Synthesis, seed int64) error {
	if syn.Block == nil || syn.Block.Phase == nil {
		return fmt.Errorf("synthesis has no mapped block")
	}
	b, ph := syn.Block, syn.Block.Phase
	rec := ph.Reconstructed()
	inPos := make(map[string]int, orig.NumInputs())
	for pos, id := range orig.Inputs() {
		inPos[orig.Node(id).Name] = pos
	}
	outPos := make(map[string]int, orig.NumOutputs())
	for i, o := range orig.Outputs() {
		outPos[o.Name] = i
	}
	// Position maps from the other networks' interfaces to the parsed
	// network's, by signal name.
	origIn := func(net *logic.Network, pos int) (int, error) {
		name := net.Node(net.Inputs()[pos]).Name
		p, ok := inPos[name]
		if !ok {
			return 0, fmt.Errorf("input %q is not an input of the parsed circuit", name)
		}
		return p, nil
	}
	origOut := func(name string) (int, error) {
		p, ok := outPos[name]
		if !ok {
			return 0, fmt.Errorf("output %q is not an output of the parsed circuit", name)
		}
		return p, nil
	}
	if rec.NumInputs() != orig.NumInputs() || rec.NumOutputs() != orig.NumOutputs() {
		return fmt.Errorf("reconstruction has %d/%d inputs/outputs, circuit %d/%d",
			rec.NumInputs(), rec.NumOutputs(), orig.NumInputs(), orig.NumOutputs())
	}
	if b.Net.NumInputs() != len(ph.Inputs) || b.Net.NumOutputs() != len(ph.Outputs) {
		return fmt.Errorf("mapped block interface %d/%d does not match its phase boundary %d/%d",
			b.Net.NumInputs(), b.Net.NumOutputs(), len(ph.Inputs), len(ph.Outputs))
	}
	recIn := make([]int, rec.NumInputs())
	for i := range recIn {
		p, err := origIn(rec, i)
		if err != nil {
			return err
		}
		recIn[i] = p
	}
	recOut := make([]int, rec.NumOutputs())
	for i, o := range rec.Outputs() {
		p, err := origOut(o.Name)
		if err != nil {
			return err
		}
		recOut[i] = p
	}
	blockIn := make([]int, len(ph.Inputs))
	for i, bi := range ph.Inputs {
		p, err := origIn(ph.Original, bi.InputPos)
		if err != nil {
			return err
		}
		blockIn[i] = p
	}
	blockOut := make([]int, len(ph.Outputs))
	for i, bo := range ph.Outputs {
		p, err := origOut(ph.Original.Outputs()[bo.OutputIdx].Name)
		if err != nil {
			return err
		}
		blockOut[i] = p
	}

	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, orig.NumInputs())
	recWords := make([]uint64, rec.NumInputs())
	blockWords := make([]uint64, len(ph.Inputs))
	var scratch, recScratch, blockScratch []uint64
	for range checkVectors / 64 {
		for i := range in {
			in[i] = rng.Uint64()
		}
		scratch = orig.EvalWide(in, scratch)
		want := func(i int) uint64 { return scratch[orig.Outputs()[i].Driver] }

		for i, p := range recIn {
			recWords[i] = in[p]
		}
		recScratch = rec.EvalWide(recWords, recScratch)
		for i, o := range rec.Outputs() {
			if recScratch[o.Driver] != want(recOut[i]) {
				return fmt.Errorf("reconstructed output %s differs from the circuit", o.Name)
			}
		}

		for i, p := range blockIn {
			blockWords[i] = in[p]
			if ph.Inputs[i].Inverted {
				blockWords[i] = ^blockWords[i]
			}
		}
		blockScratch = b.Net.EvalWide(blockWords, blockScratch)
		for i, o := range b.Net.Outputs() {
			got := blockScratch[o.Driver]
			if ph.Outputs[i].Negated {
				got = ^got
			}
			if got != want(blockOut[i]) {
				return fmt.Errorf("mapped block output %s differs from the circuit", o.Name)
			}
		}
	}
	return nil
}

// checkRow runs the equivalence gate on both syntheses of a production
// row, re-parsing the row's input file as the reference.
func checkRow(e corpus.Entry, row *flow.CorpusRow) error {
	if row.Err != "" {
		return fmt.Errorf("error row: %s", row.Err)
	}
	if row.Row == nil {
		return fmt.Errorf("no combinational row")
	}
	c, err := corpus.Load(e)
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		syn  *flow.Synthesis
	}{{"MA", &row.Row.MA}, {"MP", &row.Row.MP}} {
		if err := checkSynthesis(c.Named.Net, s.syn, int64(row.Index)+1); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
