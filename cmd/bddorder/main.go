// Command bddorder compares BDD sizes under the paper's variable-ordering
// heuristic and baselines (Section 4.2.2, Figure 10), on a BLIF circuit
// or on the built-in Figure 10 example, whose run adds the figure's
// "disturbed" order and prints the paper's node counts beside the rows.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bdd"
	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/order"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bddorder: ")
	blifPath := flag.String("blif", "", "BLIF file (default: the paper's Figure 10 circuit)")
	sift := flag.Bool("sift", false, "also sift the heuristic order in place")
	seed := flag.Int64("seed", 1, "seed for the random baseline")
	flag.Parse()

	var net *logic.Network
	if *blifPath == "" {
		net = figure10()
		fmt.Println("circuit: Figure 10 (P = x1·x2·x3, Q = x3·x4, R = P+Q+x5)")
	} else {
		f, err := os.Open(*blifPath)
		if err != nil {
			log.Fatal(err)
		}
		m, err := blif.Parse(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		net = m.Network
		fmt.Printf("circuit: %s (%d PIs, %d POs, %d gates)\n",
			net.Name, net.NumInputs(), net.NumOutputs(), net.GateCount())
	}

	// The paper's Figure 10 counts the shared BDD nodes of the non-input
	// circuit nodes (P, Q, R in the example).
	gateRoots := func(nb *bdd.NetworkBDDs) []bdd.Ref {
		var roots []bdd.Ref
		for i := 0; i < net.NumNodes(); i++ {
			if net.Kind(logic.NodeID(i)).IsGate() {
				roots = append(roots, nb.NodeRefs[i])
			}
		}
		return roots
	}
	build := func(ord []int) *bdd.NetworkBDDs {
		nb, err := bdd.BuildNetwork(bdd.NewWithOrder(net.NumInputs(), ord), net, nil)
		if err != nil {
			log.Fatal(err)
		}
		return nb
	}
	count := func(ord []int) int {
		nb := build(ord)
		return nb.Manager.NodeCount(gateRoots(nb)...)
	}
	// The built-in run prints the paper's Figure 10 counts beside its
	// rows, and adds the figure's third, "disturbed" order.
	const disturbed = "disturbed [x5,x1,x4,x3,x2]"
	var paper map[string]int
	if *blifPath == "" {
		paper = map[string]int{"reverse-topological": 7, "topological": 11, disturbed: 9}
	}
	row := func(label string, ord []int, note string) {
		if n, ok := paper[label]; ok {
			note += fmt.Sprintf("   (paper: %d)", n)
		}
		fmt.Printf("%-28s %10d%s\n", label, count(ord), note)
	}
	fmt.Printf("%-28s %10s\n", "ordering", "BDD nodes")
	revOrd := order.ReverseTopological(net)
	row("reverse-topological", revOrd, "   (the paper's heuristic)")
	row("topological", order.Topological(net), "")
	if paper != nil {
		row(disturbed, []int{4, 0, 3, 2, 1}, "")
	}
	row("natural (declaration)", order.Natural(net), "")
	row("dfs", order.DFS(net), "")
	row("random", order.Random(net, *seed), "")
	if *sift {
		// In-place sifting swaps adjacent levels inside one manager and
		// minimizes its whole live table (every network node stays
		// protected, inputs included).
		ip := build(revOrd)
		ipRoots := gateRoots(ip)
		fmt.Printf("\n%-28s %10s %14s\n", "sifting from heuristic", "BDD nodes", "wall time")
		fmt.Printf("%-28s %10d %14s\n", "no sifting", ip.Manager.NodeCount(ipRoots...), "-")
		t1 := time.Now()
		if err := ip.Manager.Reorder(); err != nil {
			log.Fatal(err)
		}
		ipElapsed := time.Since(t1)
		fmt.Printf("%-28s %10d %14s\n", "in-place reorder", ip.Manager.NodeCount(ipRoots...), ipElapsed.Round(time.Microsecond))
	}
}

func figure10() *logic.Network {
	n := logic.New("fig10")
	x1 := n.AddInput("x1")
	x2 := n.AddInput("x2")
	x3 := n.AddInput("x3")
	x4 := n.AddInput("x4")
	x5 := n.AddInput("x5")
	p := n.AddAnd(x1, x2, x3)
	q := n.AddAnd(x3, x4)
	r := n.AddOr(p, q, x5)
	n.MarkOutput("P", p)
	n.MarkOutput("Q", q)
	n.MarkOutput("R", r)
	return n
}
