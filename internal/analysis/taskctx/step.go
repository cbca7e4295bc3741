package taskctx

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/simcall"
)

// stepTakers names, by package base and function name, the calls whose
// func-typed arguments run as clock callbacks or steps (of a service or of
// a step task): on the goroutine advancing the virtual clock (or on one
// that just granted a core), with virtual time held still until they
// return. NewService's are the library's nothing-to-poll predicate, which a
// pass's last step calls, and its resume hook, which re-enters a pass at a
// dormant service's wake; OnActivity's is that wake, called from delivery
// callbacks and posts. A Submit's body is a step too when the options include
// tasking.NonBlocking (nonBlockingBody).
var stepTakers = map[string]map[string]bool{
	"vclock":   {"InitEvent": true, "InitRankedEvent": true, "InitStream": true},
	"tasking":  {"NewService": true, "Start": true, "After": true, "Then": true, "acquire": true},
	"gaspisim": {"OnActivity": true},
	"fabric":   {"Register": true},
}

// stepChecker finds the functions a package hands to the step takers and
// reports blocking operations reachable from them inside the package.
type stepChecker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl // the package's function bodies
	vals  map[*types.Var][]ast.Expr     // function values assigned to variables and fields
	seen  map[any]bool                  // bodies scanned and variables resolved
}

// checkSteps applies the no-block rule to every step the package registers.
func checkSteps(pass *analysis.Pass) {
	c := &stepChecker{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		vals:  map[*types.Var][]ast.Expr{},
		seen:  map[any]bool{},
	}
	var takers, bodies []*ast.CallExpr
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && n.Body != nil {
				c.decls[fn] = n
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					c.bind(lhs, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					c.bind(name, n.Values[i])
				}
			}
		case *ast.KeyValueExpr:
			c.bind(n.Key, n.Value)
		case *ast.CallExpr:
			fn := simcall.Callee(pass.TypesInfo, n)
			if fn != nil && fn.Pkg() != nil && stepTakers[pkgBase(fn.Pkg().Path())][fn.Name()] {
				takers = append(takers, n)
			}
			if nonBlockingBody(pass, fn, n) {
				bodies = append(bodies, n)
			}
		}
		return true
	})
	for _, call := range takers {
		for _, arg := range call.Args {
			c.stepArg(arg)
		}
	}
	for _, call := range bodies {
		c.stepArg(call.Args[0])
	}
}

// nonBlockingBody reports whether call is a tasking Submit whose options
// include a tasking.NonBlocking() call: its body is a step task's first
// step.
func nonBlockingBody(pass *analysis.Pass, fn *types.Func, call *ast.CallExpr) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != "Submit" || pkgBase(fn.Pkg().Path()) != "tasking" {
		return false
	}
	for _, arg := range call.Args[1:] {
		opt, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			continue
		}
		if o := simcall.Callee(pass.TypesInfo, opt); o != nil && o.Pkg() != nil &&
			o.Name() == "NonBlocking" && pkgBase(o.Pkg().Path()) == "tasking" {
			return true
		}
	}
	return false
}

// stepArg scans a taker's argument: a function, or the function-typed
// fields of a composite literal (tasking's core waiters).
func (c *stepChecker) stepArg(arg ast.Expr) {
	if cl, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				c.stepArg(kv.Value)
			}
		}
		return
	}
	if _, ok := c.pass.TypesInfo.TypeOf(arg).Underlying().(*types.Signature); ok {
		c.step(arg)
	}
}

// bind records rhs as a value of the variable or field lhs names.
func (c *stepChecker) bind(lhs, rhs ast.Expr) {
	if v, ok := c.object(lhs).(*types.Var); ok {
		c.vals[v] = append(c.vals[v], rhs)
	}
}

// object resolves an identifier or selector to what it names.
func (c *stepChecker) object(e ast.Expr) types.Object {
	info := c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// step scans the function a step expression denotes: a literal, a function
// or method value of this package, or a variable or field holding one.
func (c *stepChecker) step(e ast.Expr) {
	if fl, ok := ast.Unparen(e).(*ast.FuncLit); ok {
		c.scan(fl.Body)
		return
	}
	switch obj := c.object(e).(type) {
	case *types.Func:
		if fd := c.decls[obj]; fd != nil {
			c.scan(fd.Body)
		}
	case *types.Var:
		if !c.seen[obj] {
			c.seen[obj] = true
			for _, v := range c.vals[obj] {
				c.step(v)
			}
		}
	}
}

// scan reports the blocking operations of one body and follows its calls
// into the package's other functions.
func (c *stepChecker) scan(body *ast.BlockStmt) {
	if c.seen[body] {
		return
	}
	c.seen[body] = true
	scanBlocking(c.pass, body, func(pos ast.Node, what string) {
		c.pass.Reportf(pos.Pos(),
			"%s in a step or clock callback: it runs with virtual time held still and must not block; charge time with an armed event (Service.After, Task.Then), or move the blocking work onto a goroutine",
			what)
	}, func(fn *types.Func) {
		if fd := c.decls[fn]; fd != nil {
			c.scan(fd.Body)
		}
	})
}
