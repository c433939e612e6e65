package lint

import (
	"go/ast"
	"go/types"
)

// detRangeScope is every row-producing package (rowScope) plus serve,
// whose JSONL streams and job listings are served rows: a map iteration
// whose order leaks into a row, a served response or an engine's
// intermediate result breaks determinism at some worker count or run,
// so it poisons the content-addressed cache.
var detRangeScope = append([]string{"serve"}, rowScope...)

// DetRange flags `range` over a map in row-producing packages. The only
// allowed raw map range is a pure key/value collection loop (every
// statement an append) — the canonical collect-sort-iterate pattern —
// because its effect is order-insensitive once the collected slice is
// sorted. Anything else needs the keys sorted first or a
// //dominolint:nondet-ok directive stating why the order cannot reach a
// row.
var DetRange = &Analyzer{
	Name:      "detrange",
	Directive: "nondet-ok",
	Doc: "range over a map in a row-producing package (every package " +
		"walltime checks, plus serve) is nondeterministic; sort the keys " +
		"first, collect-then-sort, or annotate //dominolint:nondet-ok",
	Run: runDetRange,
}

func runDetRange(pass *Pass) error {
	if !pkgScope(pass, detRangeScope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isCollectLoop(rs.Body) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s: iteration order is nondeterministic "+
				"and this package produces rows; sort the keys first or annotate "+
				"//dominolint:nondet-ok <reason>", exprString(rs.X))
			return true
		})
	}
	return nil
}

// isCollectLoop reports whether every statement of a range body is an
// append assignment (`s = append(s, ...)`) — the collect half of the
// collect-sort-iterate pattern, whose effect is independent of
// iteration order once the slice is sorted.
func isCollectLoop(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}
