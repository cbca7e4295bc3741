// Package taskctx defines the tagalint analyzer that enforces task-context
// discipline on the task-aware communication libraries. Three rules:
//
//  1. A tagaspi/tampi operation must be issued on behalf of a real task —
//     passing a nil *tasking.Task dereferences nil inside Events() at
//     modelled runtime, long after the submission site has gone.
//  2. An onready callback (tasking.WithOnReady, §V-A of the paper) runs on
//     the runtime's dependency-release path before the task owns a core;
//     it may only register asynchronous events (NotifyIwait and friends).
//     Blocking there — a channel op, Task.Compute, or any simulator
//     wait — stalls dependency release for the whole rank.
//  3. A clock callback (VirtualClock.InitEvent, and the per-item
//     callback of vclock.InitStream), a fabric delivery handler
//     (Fabric.Register), a service step (the functions handed to
//     tasking.Service's Start and After, and the nothing-to-poll
//     predicate handed to Runtime.NewService) or a step task's step (the body
//     of a Submit with tasking.NonBlocking, and the functions handed to
//     Task.Then) runs on the goroutine that is advancing the virtual
//     clock, which holds the advance lock, or on one that just granted a
//     core. Blocking there — directly or in a function of the same package
//     it calls — hangs the run with no deadlock report (step.go). Compute,
//     Sleep, Park, Resource.Use, a GASPI post and any MPI call that takes
//     the THREAD_MULTIPLE lock all block.
package taskctx

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/simcall"
)

// Analyzer flags nil *tasking.Task arguments to task-aware operations and
// blocking calls inside onready callbacks, clock callbacks and steps.
var Analyzer = &analysis.Analyzer{
	Name: "taskctx",
	Doc: "report nil *tasking.Task arguments to tagaspi/tampi operations " +
		"and blocking waits issued from onready callbacks, clock callbacks " +
		"and service or task steps",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		checkNilTask(pass, call)
		if fl := onreadyCallback(pass, call); fl != nil {
			checkOnready(pass, fl)
		}
		return true
	})
	checkSteps(pass)
	return nil
}

// checkNilTask flags a literal nil passed where a tagaspi/tampi operation
// expects the issuing task.
func checkNilTask(pass *analysis.Pass, call *ast.CallExpr) {
	fn := simcall.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch pkgBase(fn.Pkg().Path()) {
	case "tagaspi", "tampi":
	default:
		return
	}
	i := simcall.TaskParam(fn)
	if i < 0 || i >= len(call.Args) {
		return
	}
	if isNil(pass.TypesInfo, call.Args[i]) {
		pass.Reportf(call.Args[i].Pos(),
			"nil *tasking.Task passed to %s: task-aware operations must be issued from a task context",
			fn.Pkg().Name()+"."+fn.Name())
	}
}

// onreadyCallback returns the function literal registered through
// tasking.WithOnReady, if call is such a registration.
func onreadyCallback(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncLit {
	fn := simcall.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Name() != "WithOnReady" || pkgBase(fn.Pkg().Path()) != "tasking" {
		return nil
	}
	if len(call.Args) != 1 {
		return nil
	}
	fl, _ := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	return fl
}

// checkOnready scans an onready body for blocking operations.
func checkOnready(pass *analysis.Pass, fl *ast.FuncLit) {
	scanBlocking(pass, fl.Body, func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(),
			"%s in an onready callback: onready runs before the task has a core and may only register asynchronous events",
			what)
	}, nil)
}

// scanBlocking walks a function body and reports every operation that can
// park the calling goroutine; a call to any other function is passed to
// called, if not nil. Nested function literals are skipped: they are
// values, not code the body necessarily runs. A select with a default
// clause cannot block, and neither can the send or receive of its cases.
func scanBlocking(pass *analysis.Pass, body *ast.BlockStmt,
	report func(pos ast.Node, what string), called func(*types.Func)) {
	polled := map[ast.Node]bool{} // case operations of selects that have a default
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !polled[n] {
				report(n, "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !polled[n] {
				report(n, "channel receive")
			}
		case *ast.SelectStmt:
			if !slices.ContainsFunc(n.Body.List, isDefaultClause) {
				report(n, "select")
				break
			}
			for _, cl := range n.Body.List {
				polled[commOp(cl.(*ast.CommClause).Comm)] = true
			}
		case *ast.CallExpr:
			fn := simcall.Callee(pass.TypesInfo, n)
			if simcall.IsBlocking(fn) {
				report(n, simcall.BlockDescription(fn))
			} else if fn != nil && called != nil {
				called(fn)
			}
		}
		return true
	})
}

func isDefaultClause(cl ast.Stmt) bool { return cl.(*ast.CommClause).Comm == nil }

// commOp returns the send statement or receive expression a select case
// performs — `ch <- v`, `<-ch`, or the right-hand side of `v := <-ch` — and
// nil for the default clause.
func commOp(comm ast.Stmt) ast.Node {
	switch s := comm.(type) {
	case *ast.SendStmt:
		return s
	case *ast.ExprStmt:
		return ast.Unparen(s.X)
	case *ast.AssignStmt:
		return ast.Unparen(s.Rhs[0])
	}
	return nil
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
