// Package gen generates the benchmark circuits of the reproduction.
//
// The paper evaluates on four MCNC benchmarks (apex7, frg1, x1, x3) and
// three proprietary Intel control blocks (Industry 1-3). Neither the MCNC
// BLIF files nor the Intel blocks are available in this offline
// environment, so this package builds deterministic *synthetic twins*:
// multi-level AND/OR/NOT control-logic-like networks with exactly the
// primary input and output counts Table 1 reports and comparable gate
// counts. The phase-assignment algorithms only interact with network
// structure (cones, overlaps, probabilities), so twins with matched
// interfaces and scale preserve the experimental shape.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/seq"
)

// Params controls the synthetic network generator.
type Params struct {
	Name    string
	Inputs  int
	Outputs int
	// Gates is the approximate number of logic gates to create.
	Gates int
	Seed  int64
	// NotProb is the probability a generated gate is an inverter
	// (default 0.18 when zero) — technology-independent synthesis leaves
	// inverters at arbitrary points, which is what phase assignment
	// removes.
	NotProb float64
	// WideProb is the probability an AND/OR gate takes a third or fourth
	// fanin (default 0.3).
	WideProb float64
	// Locality biases fanin selection toward recently created nodes,
	// producing the deep convergent cones typical of control logic
	// (default 0.7).
	Locality float64
	// OrProb is the probability a non-inverter gate is an OR (default
	// 0.5). Control logic skews OR-heavy, which drives internal signal
	// probabilities toward 1 — the asymmetry (Figure 2) that makes the
	// minimum-power phase assignment diverge from the minimum-area one.
	OrProb float64
}

func (p *Params) defaults() {
	if p.NotProb == 0 {
		p.NotProb = 0.18
	}
	if p.WideProb == 0 {
		p.WideProb = 0.3
	}
	if p.Locality == 0 {
		p.Locality = 0.7
	}
	if p.OrProb == 0 {
		p.OrProb = 0.5
	}
}

// Generate builds a deterministic pseudo-random multi-level network.
func Generate(p Params) *logic.Network {
	p.defaults()
	rng := rand.New(rand.NewSource(p.Seed))
	n := logic.New(p.Name)
	ids := make([]logic.NodeID, 0, p.Inputs+p.Gates)
	for i := 0; i < p.Inputs; i++ {
		ids = append(ids, n.AddInput(fmt.Sprintf("pi%03d", i)))
	}
	pick := func() logic.NodeID {
		if rng.Float64() < p.Locality && len(ids) > p.Inputs {
			// Recent window: the last quarter of created nodes.
			w := len(ids) / 4
			if w < 4 {
				w = 4
			}
			lo := len(ids) - w
			if lo < 0 {
				lo = 0
			}
			return ids[lo+rng.Intn(len(ids)-lo)]
		}
		return ids[rng.Intn(len(ids))]
	}
	distinct := func(k int) []logic.NodeID {
		fs := make([]logic.NodeID, 0, k)
		seen := make(map[logic.NodeID]bool, k)
		for len(fs) < k {
			f := pick()
			if seen[f] {
				// Collisions are fine to resolve uniformly.
				f = ids[rng.Intn(len(ids))]
			}
			if !seen[f] {
				seen[f] = true
				fs = append(fs, f)
			}
		}
		return fs
	}
	for g := 0; g < p.Gates; g++ {
		r := rng.Float64()
		switch {
		case r < p.NotProb:
			ids = append(ids, n.AddNot(pick()))
		default:
			width := 2
			if rng.Float64() < p.WideProb {
				width += 1 + rng.Intn(2)
			}
			fs := distinct(width)
			if rng.Float64() < p.OrProb {
				ids = append(ids, n.AddOr(fs...))
			} else {
				ids = append(ids, n.AddAnd(fs...))
			}
		}
	}
	// Outputs: prefer late (deep) distinct gate drivers.
	gateStart := p.Inputs
	candidates := ids[gateStart:]
	if len(candidates) == 0 {
		candidates = ids
	}
	used := make(map[logic.NodeID]bool)
	for o := 0; o < p.Outputs; o++ {
		var driver logic.NodeID = logic.InvalidNode
		// Bias toward the deepest third, fall back to anything unused,
		// and finally accept reuse through a buffer.
		for attempt := 0; attempt < 50; attempt++ {
			lo := len(candidates) * 2 / 3
			c := candidates[lo+rng.Intn(len(candidates)-lo)]
			if !used[c] {
				driver = c
				break
			}
		}
		if driver == logic.InvalidNode {
			for _, c := range candidates {
				if !used[c] {
					driver = c
					break
				}
			}
		}
		if driver == logic.InvalidNode {
			driver = n.AddBuf(candidates[rng.Intn(len(candidates))])
		}
		used[driver] = true
		n.MarkOutput(fmt.Sprintf("po%03d", o), driver)
	}
	return n.Rebuild()
}

// NamedCircuit pairs a benchmark name with its network and the paper's
// reported interface, for table reports.
type NamedCircuit struct {
	Name string
	Desc string
	Net  *logic.Network
	// PaperPIs/PaperPOs are the interface sizes Table 1 reports (they
	// equal the generated interface by construction).
	PaperPIs, PaperPOs int
	// PaperMASize/PaperMPSize/PaperAreaPen/PaperPwrSav record Table 1's
	// results; the table reports print the two percentages beside the
	// measured ones.
	PaperMASize, PaperMPSize int
	PaperAreaPen             float64
	PaperPwrSav              float64
}

// The seven Table 1 circuits. Gate budgets are tuned so the synthesized
// cell counts land in the same regime as the paper's "Size" column.

// Industry1 is the twin of the paper's "Industry 1" control block
// (127 PIs, 122 POs, MA size 1849).
func Industry1() NamedCircuit {
	return NamedCircuit{
		Name: "Industry 1", Desc: "Control Logic",
		Net:      Generate(Params{Name: "industry1", Inputs: 127, Outputs: 122, Gates: 1300, Seed: 0xD0A11, OrProb: 0.68}),
		PaperPIs: 127, PaperPOs: 122,
		PaperMASize: 1849, PaperMPSize: 1970, PaperAreaPen: 6.5, PaperPwrSav: 22.6,
	}
}

// Industry2 is the twin of "Industry 2" (97 PIs, 86 POs, MA size 2272).
func Industry2() NamedCircuit {
	return NamedCircuit{
		Name: "Industry 2", Desc: "Control Logic",
		Net:      Generate(Params{Name: "industry2", Inputs: 97, Outputs: 86, Gates: 1650, Seed: 0xD0A12, OrProb: 0.55}),
		PaperPIs: 97, PaperPOs: 86,
		PaperMASize: 2272, PaperMPSize: 2348, PaperAreaPen: 3.3, PaperPwrSav: -2.8,
	}
}

// Industry3 is the twin of "Industry 3" (117 PIs, 199 POs, MA size 1589).
func Industry3() NamedCircuit {
	return NamedCircuit{
		Name: "Industry 3", Desc: "Control Logic",
		Net:      Generate(Params{Name: "industry3", Inputs: 117, Outputs: 199, Gates: 1150, Seed: 0xD0A13, OrProb: 0.70}),
		PaperPIs: 117, PaperPOs: 199,
		PaperMASize: 1589, PaperMPSize: 1699, PaperAreaPen: 6.9, PaperPwrSav: 27.3,
	}
}

// Apex7 is the twin of MCNC apex7 (79 PIs, 36 POs, MA size 394).
func Apex7() NamedCircuit {
	return NamedCircuit{
		Name: "apex7", Desc: "Public Domain",
		Net:      Generate(Params{Name: "apex7", Inputs: 79, Outputs: 36, Gates: 270, Seed: 0xA9E07, OrProb: 0.72}),
		PaperPIs: 79, PaperPOs: 36,
		PaperMASize: 394, PaperMPSize: 443, PaperAreaPen: 12.4, PaperPwrSav: 19.5,
	}
}

// Frg1 is the twin of MCNC frg1 (31 PIs, 3 POs, MA size 98). Its tiny
// 2^3 phase space makes exhaustive search feasible, mirroring the
// paper's observation.
func Frg1() NamedCircuit {
	return NamedCircuit{
		Name: "frg1", Desc: "Public Domain",
		Net:      Generate(Params{Name: "frg1", Inputs: 31, Outputs: 3, Gates: 70, Seed: 0xF1261, Locality: 0.85, OrProb: 0.85}),
		PaperPIs: 31, PaperPOs: 3,
		PaperMASize: 98, PaperMPSize: 145, PaperAreaPen: 48.0, PaperPwrSav: 34.1,
	}
}

// X1 is the twin of MCNC x1 (87 PIs, 28 POs, MA size 404).
func X1() NamedCircuit {
	return NamedCircuit{
		Name: "x1", Desc: "Public Domain",
		Net:      Generate(Params{Name: "x1", Inputs: 87, Outputs: 28, Gates: 280, Seed: 0x0A007, OrProb: 0.70}),
		PaperPIs: 87, PaperPOs: 28,
		PaperMASize: 404, PaperMPSize: 421, PaperAreaPen: 4.2, PaperPwrSav: 8.9,
	}
}

// X3 is the twin of MCNC x3 (235 PIs, 99 POs, MA size 1372).
func X3() NamedCircuit {
	return NamedCircuit{
		Name: "x3", Desc: "Public Domain",
		Net:      Generate(Params{Name: "x3", Inputs: 235, Outputs: 99, Gates: 950, Seed: 0x0A003, OrProb: 0.67}),
		PaperPIs: 235, PaperPOs: 99,
		PaperMASize: 1372, PaperMPSize: 1390, PaperAreaPen: 1.3, PaperPwrSav: 16.6,
	}
}

// X4 is a synthetic beyond-Table-1 twin: an x3-shaped control block
// scaled past the paper's largest circuit (288 PIs vs x3's 235), with
// the deep convergent cones of control logic (high Locality). It is
// the reordering benchmark's frontier circuit: its exact BDD forest
// blows the default node budget under the static build order but fits
// once in-place sifting reorders the table, so it completes
// exact-sifted where the PR-8 chain had to degrade (BENCH_9.json).
func X4() NamedCircuit {
	return NamedCircuit{
		Name: "x4", Desc: "Synthetic (beyond Table 1)",
		Net: Generate(Params{Name: "x4", Inputs: 288, Outputs: 96, Gates: 900, Seed: 0x0A404, OrProb: 0.70, Locality: 0.85}),
	}
}

// The wide twins exercise the beyond-exhaustive regime: 24, 32, and 48
// outputs put 2^k enumeration out of reach (or at its edge), which is
// the workload class the branch-and-bound and annealing search
// strategies open up. Interfaces and gate budgets follow the same
// control-logic shape as the Table 1 twins.

// Wide24 is a 24-output twin — just beyond the paper's 2^20 exhaustive
// ceiling, still reachable by exact branch-and-bound.
func Wide24() NamedCircuit {
	return NamedCircuit{
		Name: "wide24", Desc: "Synthetic (beyond-exhaustive)",
		Net: Generate(Params{Name: "wide24", Inputs: 36, Outputs: 24, Gates: 260, Seed: 0x824, OrProb: 0.66}),
	}
}

// Wide32 is the 32-output twin the annealing acceptance gate runs on:
// 2^32 assignments are infeasible to enumerate, so only the heuristic
// strategies (and the pairwise MinPower baseline) apply.
func Wide32() NamedCircuit {
	return NamedCircuit{
		Name: "wide32", Desc: "Synthetic (beyond-exhaustive)",
		Net: Generate(Params{Name: "wide32", Inputs: 48, Outputs: 32, Gates: 360, Seed: 0x832, OrProb: 0.68}),
	}
}

// Wide48 is the widest twin — 48 outputs, the stress case for the
// incremental score state's per-bit group index.
func Wide48() NamedCircuit {
	return NamedCircuit{
		Name: "wide48", Desc: "Synthetic (beyond-exhaustive)",
		Net: Generate(Params{Name: "wide48", Inputs: 64, Outputs: 48, Gates: 520, Seed: 0x848, OrProb: 0.64}),
	}
}

// WideCircuits returns the beyond-exhaustive twins in width order.
func WideCircuits() []NamedCircuit {
	return []NamedCircuit{Wide24(), Wide32(), Wide48()}
}

// FromNetwork wraps an arbitrary network as a NamedCircuit so external
// circuits (parsed benchmark files, hand-built networks) flow through
// the same table machinery as the synthetic twins.
func FromNetwork(name, desc string, net *logic.Network) NamedCircuit {
	return NamedCircuit{Name: name, Desc: desc, Net: net}
}

// KnownCircuits returns every named synthetic twin — the Table 1 set,
// the beyond-Table-1 x4 twin, plus the beyond-exhaustive wide set.
// This is the set genbench can emit to disk and the corpus smoke gate
// compares file-parsed rows against.
func KnownCircuits() []NamedCircuit {
	return append(append(Table1Circuits(), X4()), WideCircuits()...)
}

// FileName is the twin's on-disk base name (lowercase, spaces removed)
// — the one genbench emits and the corpus smoke gate matches rows by.
func (c NamedCircuit) FileName() string {
	return strings.ReplaceAll(strings.ToLower(c.Name), " ", "")
}

// Table1Circuits returns the seven benchmarks of Table 1 in the paper's
// row order.
func Table1Circuits() []NamedCircuit {
	return []NamedCircuit{Industry1(), Industry2(), Industry3(), Apex7(), Frg1(), X1(), X3()}
}

// Table2Circuits returns the four public benchmarks of Table 2 with the
// timed-flow paper numbers.
func Table2Circuits() []NamedCircuit {
	cs := []NamedCircuit{Apex7(), Frg1(), X1(), X3()}
	paper := []struct {
		maSize, mpSize int
		areaPen, sav   float64
	}{
		{452, 485, 7.3, 18.3},
		{98, 147, 50.0, 40.3},
		{406, 433, 6.7, 20.5},
		{2005, 1601, -20.0, 62.0},
	}
	for i := range cs {
		cs[i].PaperMASize = paper[i].maSize
		cs[i].PaperMPSize = paper[i].mpSize
		cs[i].PaperAreaPen = paper[i].areaPen
		cs[i].PaperPwrSav = paper[i].sav
	}
	return cs
}

// DefaultSeqFFs and DefaultSeqCount size dominoflow -seq's default set.
const DefaultSeqFFs, DefaultSeqCount = 16, 3

// SeqSet returns the parameters of dominoflow -seq's circuit set: count
// circuits named seq0, seq1, … of ffs flip-flops each, with inputs and
// gates growing along the set. genbench emits the default set as latched
// BLIF, so the corpus engine streams the same circuits.
func SeqSet(ffs, count int) []SeqParams {
	ps := make([]SeqParams, count)
	for i := range ps {
		ps[i] = SeqParams{
			Name:   fmt.Sprintf("seq%d", i),
			Inputs: 8 + i*2, FFs: ffs, Gates: 60 + 30*i,
			Seed: int64(100 + i), TwinProb: 0.5,
		}
	}
	return ps
}

// SeqParams controls sequential circuit generation for the MFVS
// experiments.
type SeqParams struct {
	Name   string
	Inputs int
	FFs    int
	Gates  int
	Seed   int64
	// TwinProb makes a new flip-flop a connectivity twin of an earlier
	// one with this probability, recreating the identical-fanin/fanout
	// symmetry domino duplication produces (Section 4.2.1).
	TwinProb float64
}

// Sequential generates a random sequential circuit: a combinational core
// plus FFs whose next-state functions draw from the core and other FFs.
func Sequential(p SeqParams) (*seq.Circuit, error) {
	return seq.FromModel(SequentialModel(p))
}

// SequentialModel is the circuit Sequential generates, as a latched BLIF
// model.
func SequentialModel(p SeqParams) *blif.Model {
	if p.TwinProb == 0 {
		p.TwinProb = 0.3
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := logic.New(p.Name)
	m := &blif.Model{Network: n}
	var ffIn []logic.NodeID
	for i := 0; i < p.Inputs; i++ {
		n.AddInput(fmt.Sprintf("x%03d", i))
	}
	for i := 0; i < p.FFs; i++ {
		ffIn = append(ffIn, n.AddInput(fmt.Sprintf("q%03d", i)))
	}
	ids := append([]logic.NodeID(nil), n.Inputs()...)
	pick := func() logic.NodeID { return ids[rng.Intn(len(ids))] }
	for g := 0; g < p.Gates; g++ {
		switch rng.Intn(5) {
		case 0:
			ids = append(ids, n.AddNot(pick()))
		case 1, 2:
			ids = append(ids, n.AddAnd(pick(), pick()))
		default:
			ids = append(ids, n.AddOr(pick(), pick()))
		}
	}
	// Next-state functions: either a fresh random node combined with FF
	// outputs, or (with TwinProb) a function reusing the exact fanin
	// structure of an earlier FF to create s-graph twins.
	type twin struct{ a, b logic.NodeID }
	var prevNS []twin
	for i := 0; i < p.FFs; i++ {
		var root logic.NodeID
		if len(prevNS) > 0 && rng.Float64() < p.TwinProb {
			tw := prevNS[rng.Intn(len(prevNS))]
			// Same fanins, same structure: an OR where the twin had one,
			// to keep functions distinct but connectivity identical.
			root = n.AddOr(tw.a, tw.b)
		} else {
			a := pick()
			b := ffIn[rng.Intn(len(ffIn))]
			root = n.AddAnd(a, b)
			prevNS = append(prevNS, twin{a, b})
		}
		ns := fmt.Sprintf("ns%03d", i)
		n.MarkOutput(ns, root)
		m.Latches = append(m.Latches, blif.Latch{Input: ns, Output: fmt.Sprintf("q%03d", i)})
	}
	// A couple of real outputs over FF state.
	n.MarkOutput("out0", n.AddOr(ffIn[0], ffIn[len(ffIn)-1]))
	if p.FFs > 2 {
		n.MarkOutput("out1", n.AddAnd(ffIn[1], ffIn[2]))
	}
	return m
}
