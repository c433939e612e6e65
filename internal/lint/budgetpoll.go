package lint

import (
	"go/ast"
	"go/types"
)

// BudgetPoll enforces the PR 8 cooperative-cancellation contract on the
// engine packages (bdd, sim, phase, sop): when a function receives a
// *budget.T parameter, every loop in it must reference the token
// somewhere inside the loop — a direct poll (tok.Err()), a helper call
// (pollCancel(ctx, tok)), or passing it down to the callee doing the
// polling. A loop with no reference at all is exactly the "future hot
// loop that forgot to poll" the contract exists for; a provably bounded
// loop can be annotated //dominolint:budget-ok with the bound as the
// reason.
var BudgetPoll = &Analyzer{
	Name:      "budgetpoll",
	Directive: "budget-ok",
	Doc: "a loop in bdd/sim/phase/sop whose enclosing function receives a " +
		"*budget.T must reference the token inside the loop body (poll, " +
		"helper, or pass-down), or carry //dominolint:budget-ok <bound>",
	Run: runBudgetPoll,
}

func runBudgetPoll(pass *Pass) error {
	if !pkgScope(pass, "bdd", "sim", "phase", "sop") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.Params == nil {
				continue
			}
			var tokens []types.Object
			var name string
			for _, field := range fn.Type.Params.List {
				for _, id := range field.Names {
					obj := pass.TypesInfo.Defs[id]
					if obj != nil && isBudgetToken(obj.Type()) {
						tokens = append(tokens, obj)
						name = id.Name
					}
				}
			}
			if len(tokens) == 0 {
				continue
			}
			checkLoops(pass, fn.Body, tokens, name)
		}
	}
	return nil
}

// checkLoops reports every for/range statement under root whose subtree
// never mentions one of the token objects. Outer loops are satisfied by
// a reference anywhere inside them (including in a nested loop), so the
// finding lands on the innermost loop that actually forgot.
func checkLoops(pass *Pass, root ast.Node, tokens []types.Object, name string) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		if !referencesAny(pass, n, tokens) {
			pass.Reportf(n.Pos(), "loop never references the *budget.T parameter %q: a hot "+
				"loop that does not poll cannot be cancelled and ignores its budget; "+
				"poll it (or annotate //dominolint:budget-ok <why the loop is bounded>)", name)
		}
		return true
	})
}

// referencesAny reports whether any identifier under n resolves to one
// of the objects.
func referencesAny(pass *Pass, n ast.Node, objs []types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		use := pass.TypesInfo.Uses[id]
		for _, o := range objs {
			if use == o {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
