// Package condloop defines the tagalint analyzer that requires every
// condition-variable wait to sit inside a predicate-rechecking loop.
// vsync.Cond mirrors sync.Cond: Wait can wake spuriously relative to the
// predicate (a Signal raced by another consumer, a WaitTimeout that
// consumed a Signal on its way out), so the only correct shape is
//
//	for !predicate() {
//	    c.Wait()
//	}
//
// An if-guarded Wait runs the protected code with the predicate false,
// which in this codebase means operating on a completion counter or a
// queue in a state it is not in — exactly the completion-API misuse the
// task-aware libraries exist to rule out.
package condloop

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/simcall"
)

// Analyzer flags Cond.Wait / Cond.WaitTimeout calls with no enclosing for
// loop in the same function.
var Analyzer = &analysis.Analyzer{
	Name: "condloop",
	Doc: "report sync.Cond / vsync.Cond Wait calls not wrapped in a " +
		"predicate-rechecking for loop",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCondWait(pass, call) {
				return true
			}
			if !inLoop(stack[:len(stack)-1]) {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				pass.Reportf(call.Pos(),
					"%s outside a for loop: condition waits can wake with the predicate false and must re-check it in a loop",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// isCondWait reports whether call invokes (*sync.Cond).Wait or
// (*vsync.Cond).Wait/WaitTimeout.
func isCondWait(pass *analysis.Pass, call *ast.CallExpr) bool {
	if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
		return false
	}
	return simcall.IsCondWait(simcall.Callee(pass.TypesInfo, call))
}

// inLoop reports whether the enclosing-node stack contains a for or range
// statement below the nearest function boundary.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
