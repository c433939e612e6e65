// Command cec performs BDD-based combinational equivalence checking of
// two BLIF circuits (matched by input/output names). Exit status 0 means
// equivalent, 1 means different (a counterexample is printed), 2 means
// usage or parse failure.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/blif"
	"repro/internal/logic"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cec: ")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Println("usage: cec a.blif b.blif")
		os.Exit(2)
	}
	a := load(flag.Arg(0))
	b := load(flag.Arg(1))
	res, err := verify.Equivalent(a, b)
	if err != nil {
		fail(err)
	}
	if res.Equivalent {
		fmt.Printf("EQUIVALENT (%d BDD nodes, both circuits in one manager)\n", res.Nodes)
		return
	}
	fmt.Printf("DIFFERENT at output %q\n", res.FailingOutput)
	fmt.Print("counterexample:")
	for pos, id := range a.Inputs() {
		v := 0
		if res.Counterexample[pos] {
			v = 1
		}
		fmt.Printf(" %s=%d", a.Node(id).Name, v)
	}
	fmt.Println()
	os.Exit(1)
}

// fail reports err and exits with status 2, not log.Fatal's 1, which
// would read as "circuits differ".
func fail(err error) {
	log.Println(err)
	os.Exit(2)
}

// load reads a combinational BLIF model; a missing, malformed or
// latched file fails the command with status 2.
func load(path string) *logic.Network {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	m, err := blif.Parse(f)
	if err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	if len(m.Latches) > 0 {
		fail(fmt.Errorf("%s: cec handles combinational models only", path))
	}
	return m.Network
}
