// Package simcall classifies calls into the simulator's packages: which
// functions can block the calling goroutine (park it on the virtual clock
// or on the Go runtime), and which packages' error returns must never be
// discarded. It is the shared vocabulary of the tagalint analyzers.
package simcall

import (
	"go/ast"
	"go/types"
	"strings"
)

// simErrPackages are the packages whose error returns encode simulator
// failures that must be handled: dropping them hides segment-bounds bugs,
// invalid queue ids and lost completion events (the misuse class TAMPI and
// MPI Continuations both report as the dominant user bug source).
var simErrPackages = map[string]bool{
	"gaspisim": true,
	"mpisim":   true,
	"memory":   true,
	"fabric":   true,
	"tagaspi":  true,
	"tampi":    true,
}

// IsSimErrPackage reports whether the import path names a package whose
// error results are load-bearing. Matching is by the path's final element
// so it holds for "repro/internal/gaspisim" and for relocated forks.
func IsSimErrPackage(path string) bool {
	return simErrPackages[pathBase(path)]
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// blocking maps package-base -> receiver-type name -> method set of calls
// that can park the calling goroutine. Functions without a receiver use
// the "" key. tasking.Runtime.Now parks until the submitter's creation
// chain has run dry. Runtime.Submit parked too, sleeping out its creation
// cost, before that cost moved onto the chain; it was never listed, and it
// no longer parks.
var blocking = map[string]map[string]map[string]bool{
	"vsync": {
		"Resource": {"Use": true},
		"Queue":    {"Pop": true},
	},
	"vclock": {
		"Parker":       {"Park": true, "ParkTimeout": true},
		"VirtualClock": {"Sleep": true},
	},
	"tasking": {
		"Task":    {"Compute": true},
		"Runtime": {"TaskWait": true, "Throttle": true, "Shutdown": true, "Now": true},
	},
	"gaspisim": {
		"Proc": {
			"Wait": true, "Drain": true, "NotifyWaitSome": true, "RequestWait": true,
			// A post sleeps through the queue's post resource (Book does not).
			"Submit": true, "Write": true, "WriteNotify": true, "Notify": true, "Read": true,
			"QueueRepair": true,
		},
	},
	"mpisim": {
		// Every call but the booking split of Testsome is served through
		// the THREAD_MULTIPLE lock, a vsync.Resource.
		"Proc": {
			"Wait": true, "Waitall": true, "Send": true, "Recv": true,
			"Barrier": true, "Flush": true, "Fence": true,
			"Isend": true, "Irecv": true, "Test": true, "Put": true, "Get": true,
			"CollectiveIsend": true, "CollectiveRecv": true,
		},
	},
	"sync": {
		"WaitGroup": {"Wait": true},
	},
	"time": {
		"": {"Sleep": true},
	},
}

// Callee resolves the *types.Func a call expression invokes, or nil for
// calls through function values, conversions and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsBlocking reports whether fn is a known goroutine-parking operation.
func IsBlocking(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	byType := blocking[pathBase(fn.Pkg().Path())]
	if byType == nil {
		return false
	}
	return byType[recvTypeName(fn)][fn.Name()]
}

// BlockDescription renders a short human label for a blocking callee.
func BlockDescription(fn *types.Func) string {
	recv := recvTypeName(fn)
	if recv == "" {
		return pathBase(fn.Pkg().Path()) + "." + fn.Name()
	}
	return pathBase(fn.Pkg().Path()) + "." + recv + "." + fn.Name()
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// TaskParam returns the index of the first parameter of type
// *tasking.Task in fn's signature, or -1.
func TaskParam(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isTaskPointer(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isTaskPointer(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Task" && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "tasking"
}
