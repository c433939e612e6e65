// Package lint is dominolint: a static-analysis suite that enforces
// this repository's determinism, cache-key, and budget contracts at
// build time instead of test time. It is a self-hosted, API-compatible
// subset of golang.org/x/tools/go/analysis (the container this repo
// grows in has no module network access, so the x/tools dependency is
// stubbed by a stdlib-only framework; the Analyzer/Pass shapes match
// go/analysis so the suite can be rebased onto the real multichecker
// when the dependency becomes vendorable).
//
// The suite (see Suite) contains five domain analyzers plus the
// directive checker:
//
//   - detrange: flags `range` over a map in the row-producing packages
//     (every package walltime checks — the engines, the flow, the
//     parsers and generators, the report layer — plus serve) unless the
//     loop is a pure key-collection (`keys = append(keys, k)`) that
//     feeds a sort, or the site carries a //dominolint:nondet-ok
//     directive.
//   - cachekey: makes flow.Config field classification a build-time
//     contract — every field must carry a `Cache-key: semantic.` or
//     `Cache-key: wall-clock` doc marker and a json tag naming the
//     field, and the wall-clock set must exactly equal the fields
//     zero-erased in Canonical().
//   - budgetpoll: a loop in bdd/sim/phase/sop whose enclosing function
//     receives a *budget.T must reference the token inside the loop
//     body (the PR 8 "hot loops poll at bounded intervals" contract).
//   - walltime: forbids time.Now/time.Since and the global math/rand
//     state in packages that feed cached rows; the documented WallSec
//     sites carry //dominolint:walltime-ok directives.
//   - errsink: flags discarded error returns in internal/blif and
//     internal/pla (the PR 5 swallowed-Sscanf bug class).
//
// Findings are suppressed by a directive comment on the offending line
// or the line above:
//
//	//dominolint:<name> <reason>
//
// where <name> is the analyzer's directive name (nondet-ok,
// cachekey-ok, budget-ok, walltime-ok, errsink-ok) and <reason> is
// mandatory prose. Malformed directives — unknown name, missing
// reason — are themselves findings (the directive analyzer), so a typo
// can never silently disable a contract.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and documentation.
	Name string
	// Doc is the one-paragraph contract statement.
	Doc string
	// Directive is the //dominolint:<Directive> name that suppresses
	// this analyzer's findings ("" = not suppressible).
	Directive string
	// Run reports findings on one package via pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one package. The shape mirrors
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding before directive filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is one reported violation with its resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Suite returns the full dominolint analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DirectiveAnalyzer,
		DetRange,
		CacheKey,
		BudgetPoll,
		WallTime,
		ErrSink,
	}
}

// pkgScope reports whether the package under analysis is one of the
// named scope packages. Scope is matched on the last import-path
// element (repro/internal/flow matches "flow"), which also lets the
// fixture packages under testdata/src/<analyzer>/<name> select scope by
// their final element.
func pkgScope(pass *Pass, names ...string) bool {
	path := pass.Pkg.Path()
	last := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last = path[i+1:]
	}
	for _, n := range names {
		if last == n {
			return true
		}
	}
	return false
}

// exprString renders a (short) expression for a finding message.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return buf.String()
}

// isBudgetToken reports whether t is *budget.T — a pointer to the named
// type T declared in a package whose path's last element is "budget"
// (matching both repro/internal/budget and the fixture package).
func isBudgetToken(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "T" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "budget" || strings.HasSuffix(path, "/budget")
}
