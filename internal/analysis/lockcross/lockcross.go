// Package lockcross defines the tagalint analyzer that forbids blocking
// while holding a lock. The paper's central argument against hybrid
// two-sided MPI (§II) is that worker threads serialise on the MPI library
// lock whenever a thread blocks inside the library while holding it; the
// simulator reproduces that contention deliberately in mpisim, and must
// never recreate it accidentally anywhere else. A goroutine that parks on
// the virtual clock — a channel operation, a Task.Compute, or any
// gaspisim/mpisim wait call — while holding a sync.Mutex stalls every other
// worker that touches the lock for the whole modelled wait, and under the
// virtual clock it can deadlock the discrete-event engine outright.
package lockcross

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/simcall"
)

// Analyzer flags blocking operations performed while a mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockcross",
	Doc: "report blocking operations (channel ops, task waits, simulator " +
		"waits) performed while holding a sync lock",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Every function body — declaration or literal, however deeply nested —
	// gets its own scan with an empty held set: a literal runs later, on
	// whatever goroutine calls it, so locks of the enclosing scope are not
	// assumed held (under-reporting, never over-reporting). The scans
	// themselves never descend into nested literals, so descending here
	// visits each body exactly once.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					newScan(pass).block(fn.Body)
				}
			case *ast.FuncLit:
				newScan(pass).block(fn.Body)
			}
			return true
		})
	}
	return nil
}

// heldLock records one acquisition that has not been released yet.
type heldLock struct {
	pos      ast.Node // the Lock call, for the report
	deferred bool     // released only by a deferred Unlock
}

// scan walks one function body in source order, tracking which lock
// expressions are held. Branches mutate the same held set — a deliberate
// approximation that keeps the walk linear; release-on-early-return
// patterns therefore clear the lock for the fall-through path too, which
// under-reports rather than over-reports.
type scan struct {
	pass *analysis.Pass
	held map[string]heldLock
	// order preserves acquisition order for stable messages.
	order []string
}

func newScan(pass *analysis.Pass) *scan {
	return &scan{pass: pass, held: map[string]heldLock{}}
}

func (s *scan) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

func (s *scan) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && s.lockOp(call, false) {
			return
		}
		s.expr(st.X)
	case *ast.DeferStmt:
		if s.lockOp(st.Call, true) {
			return
		}
		// The deferred call's arguments are evaluated now; a nested
		// function literal runs later with no locks of ours held.
		for _, a := range st.Call.Args {
			s.expr(a)
		}
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			s.expr(a)
		}
	case *ast.SendStmt:
		s.expr(st.Value)
		s.blockingOp(st, "channel send")
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			s.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.expr(st.Cond)
		s.block(st.Body)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		s.block(st.Body)
		if st.Post != nil {
			s.stmt(st.Post)
		}
	case *ast.RangeStmt:
		s.expr(st.X)
		if t := s.pass.TypesInfo.TypeOf(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				s.blockingOp(st, "range over channel")
			}
		}
		s.block(st.Body)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.blockingOp(st, "select")
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				for _, b := range cc.Body {
					s.stmt(b)
				}
			}
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, b := range cc.Body {
					s.stmt(b)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, b := range cc.Body {
					s.stmt(b)
				}
			}
		}
	case *ast.BlockStmt:
		s.block(st)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	}
}

// expr scans an expression for blocking operations: channel receives and
// calls into known parking APIs. Function literals are separate scopes.
func (s *scan) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blockingOp(n, "channel receive")
			}
		case *ast.CallExpr:
			if fn := simcall.Callee(s.pass.TypesInfo, n); simcall.IsBlocking(fn) {
				s.blockingOp(n, simcall.BlockDescription(fn))
			}
		}
		return true
	})
}

// lockOp handles mu.Lock / mu.Unlock (and RLock/RUnlock) calls on tracked
// lock types, updating the held set, and returns true when the call was a
// lock operation (so the caller skips the generic expr scan).
func (s *scan) lockOp(call *ast.CallExpr, deferred bool) bool {
	fn := simcall.Callee(s.pass.TypesInfo, call)
	if fn == nil || !isLockType(fn) {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		if deferred {
			return false // defer mu.Lock() is nonsense; leave to vet
		}
		if _, dup := s.held[key]; !dup {
			s.order = append(s.order, key)
		}
		s.held[key] = heldLock{pos: call}
		return true
	case "Unlock", "RUnlock":
		if deferred {
			if h, ok := s.held[key]; ok {
				h.deferred = true
				s.held[key] = h
			}
			return true
		}
		delete(s.held, key)
		return true
	}
	return false
}

func isLockType(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg, name := named.Obj().Pkg(), named.Obj().Name()
	return pkg != nil && pkg.Name() == "sync" &&
		(name == "Mutex" || name == "RWMutex" || name == "Locker")
}

// blockingOp reports op if any lock is currently held.
func (s *scan) blockingOp(at ast.Node, what string) {
	for _, key := range s.order {
		h, ok := s.held[key]
		if !ok {
			continue
		}
		how := ""
		if h.deferred {
			how = " (released only by defer)"
		}
		s.pass.Reportf(at.Pos(), "%s while holding %s%s", what, key, how)
	}
}
