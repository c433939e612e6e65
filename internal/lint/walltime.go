package lint

import (
	"go/ast"
	"go/types"
)

// rowScope is every package whose computation reaches a cached row:
// the engines, the flow, the parsers/generators feeding them, and the
// report layer. walltime checks exactly these. internal/serve is out of
// its scope — its queue timing, Retry-After arithmetic, and drain
// deadlines are legitimately wall-clock and never enter row bytes (rows
// are produced by flow under this contract) — but detrange adds it,
// since the order of what it serves is part of the response.
var rowScope = []string{
	"bdd", "blif", "corpus", "domino", "flow", "gen", "logic", "order",
	"par", "phase", "pla", "power", "prob", "report", "seq", "sgraph",
	"sim", "sop", "timing", "verify",
}

// rngConstructors are the deterministic math/rand entry points: they
// build an explicitly seeded generator, which is how every engine in
// this repo derives reproducible streams. Everything else in math/rand
// reads the global, ambient-seeded state and is forbidden in scope.
var rngConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// WallTime forbids ambient nondeterminism — time.Now, time.Since, and
// the global math/rand state — in packages that feed cached rows. Two
// runs of the same canonical config over the same bytes must produce
// bit-identical rows; a wall-clock read or an unseeded random draw in
// the compute path breaks that silently. The documented WallSec
// stamping sites carry //dominolint:walltime-ok directives.
var WallTime = &Analyzer{
	Name:      "walltime",
	Directive: "walltime-ok",
	Doc: "time.Now/time.Since and global math/rand are forbidden in " +
		"packages that feed cached rows; seeded rand.New(rand.NewSource(..)) " +
		"streams are fine, documented wall-clock sites carry " +
		"//dominolint:walltime-ok",
	Run: runWallTime,
}

func runWallTime(pass *Pass) error {
	if !pkgScope(pass, rowScope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel]
			if !ok {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Uint64) are seeded state
			}
			switch fn.Pkg().Path() {
			case "time":
				if name := fn.Name(); name == "Now" || name == "Since" {
					pass.Reportf(call.Pos(), "time.%s in a row-feeding package: wall-clock "+
						"values must never reach cached rows; compute them in the caller or "+
						"annotate //dominolint:walltime-ok <reason>", name)
				}
			case "math/rand", "math/rand/v2":
				if !rngConstructors[fn.Name()] {
					pass.Reportf(call.Pos(), "global math/rand.%s in a row-feeding package: "+
						"ambient random state is nondeterministic across runs; draw from an "+
						"explicitly seeded rand.New(rand.NewSource(seed)) stream", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
