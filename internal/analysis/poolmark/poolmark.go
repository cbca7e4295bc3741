// Package poolmark resolves the //tagalint:pooled source markers that
// drive the poollife analyzer. The markers declare, next to the code that
// owns the pool, which types are pool-recycled and which functions consume
// them:
//
//	//tagalint:pooled
//	type Message struct { ... }        // instances are pool-recycled
//
//	//tagalint:pooled release
//	func releaseMessage(m *Message)    // calling this releases m
//
//	//tagalint:pooled transfer
//	func (f *Fabric) Send(m *Message)  // ownership moves to the callee
//
// release and transfer have the same dataflow effect — the caller must not
// touch the argument afterwards — and differ only in diagnostic wording:
// release returns the object to its pool, transfer hands it to another
// owner (the fabric owns a Message after Send; whether it pools it is the
// fabric's business).
//
// Because pooled types are used across packages (every protocol layer
// builds fabric.Messages), markers must be visible when analyzing a
// package other than the declaring one. The unit-at-a-time framework has
// no cross-package fact store, so poolmark re-reads the declaring
// package's source instead: a type or function object in a module-local
// package is resolved by parsing that package's directory (comments and
// declarations only, no type checking) and scanning its doc comments. One
// Cache memoizes the scan per directory.
package poolmark

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
)

// Kind distinguishes how a marked function consumes its pooled arguments.
type Kind int

const (
	// Release: the function returns its pooled arguments to their pool.
	Release Kind = iota
	// Transfer: ownership of the pooled arguments moves to the callee
	// (or through it, e.g. to the fabric); the caller must treat them as
	// gone either way.
	Transfer
)

func (k Kind) String() string {
	if k == Transfer {
		return "transfer"
	}
	return "release"
}

// marker is the directive prefix. A bare marker on a type declares it
// pooled; "release"/"transfer" arguments on a func declare it a consumer.
const marker = "//tagalint:pooled"

// Info holds the markers of one package directory.
type Info struct {
	// Types maps marked type names to true.
	Types map[string]bool
	// Funcs maps "Name" (functions) and "Recv.Name" (methods, pointer
	// receivers stripped) to the consumer kind.
	Funcs map[string]Kind
}

// Cache memoizes directory scans. The zero value is not usable; use
// NewCache. A Cache is safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	byDir map[string]*Info
}

// NewCache returns an empty marker cache.
func NewCache() *Cache {
	return &Cache{byDir: map[string]*Info{}}
}

func scanFile(f *ast.File, info *Info) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasMarker(d.Doc, "") || hasMarker(ts.Doc, "") || hasMarker(ts.Comment, "") {
					info.Types[ts.Name.Name] = true
				}
			}
		case *ast.FuncDecl:
			kind, ok := funcMarker(d.Doc)
			if !ok {
				continue
			}
			info.Funcs[funcKey(d)] = kind
		}
	}
}

// funcKey renders a FuncDecl's lookup key: "Name" or "Recv.Name".
func funcKey(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + d.Name.Name
		default:
			return d.Name.Name
		}
	}
}

// hasMarker reports whether cg contains the marker with the given
// argument ("" for the bare type marker).
func hasMarker(cg *ast.CommentGroup, arg string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, marker)
		if !ok {
			continue
		}
		if strings.TrimSpace(rest) == arg {
			return true
		}
	}
	return false
}

func funcMarker(cg *ast.CommentGroup) (Kind, bool) {
	switch {
	case hasMarker(cg, "release"):
		return Release, true
	case hasMarker(cg, "transfer"):
		return Transfer, true
	}
	return 0, false
}

// Dir loads (or returns the cached) markers of one package directory.
// Scan failures yield an empty Info: an unreadable dependency simply
// contributes no pooled types, it does not fail the analysis.
func (c *Cache) Dir(dir string) *Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	if info, ok := c.byDir[dir]; ok {
		return info
	}
	info := &Info{Types: map[string]bool{}, Funcs: map[string]Kind{}}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err == nil {
		// Deterministic order is irrelevant: markers only add entries.
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				scanFile(f, info)
			}
		}
	}
	c.byDir[dir] = info
	return info
}

// dirOf maps a module-local import path to its directory under root, or
// "" for std and external packages. External test packages ("foo_test")
// share their directory with "foo".
func dirOf(root, modpath, pkgpath string) string {
	pkgpath = strings.TrimSuffix(pkgpath, "_test")
	if pkgpath == modpath {
		return root
	}
	rel, ok := strings.CutPrefix(pkgpath, modpath+"/")
	if !ok {
		return ""
	}
	return filepath.Join(root, filepath.FromSlash(rel))
}

// Resolver answers poollife's two questions — is this type pooled, is this
// callee a consumer — against a module root, caching directory scans.
type Resolver struct {
	cache   *Cache
	root    string
	modpath string
}

// NewResolver returns a Resolver rooted at the module directory root with
// module path modpath, sharing cache (which must not be nil).
func NewResolver(cache *Cache, root, modpath string) *Resolver {
	return &Resolver{cache: cache, root: root, modpath: modpath}
}

func (r *Resolver) infoFor(pkg *types.Package) *Info {
	if pkg == nil {
		return nil
	}
	dir := dirOf(r.root, r.modpath, pkg.Path())
	if dir == "" {
		return nil
	}
	return r.cache.Dir(dir)
}

// IsPooled reports whether t (or its pointee) is a named type marked
// //tagalint:pooled in its declaring, module-local package.
func (r *Resolver) IsPooled(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	info := r.infoFor(obj.Pkg())
	return info != nil && info.Types[obj.Name()]
}

// ConsumerKind reports whether fn is marked as a pooled-object consumer
// and, if so, whether it releases or transfers.
func (r *Resolver) ConsumerKind(fn *types.Func) (Kind, bool) {
	if fn == nil {
		return 0, false
	}
	info := r.infoFor(fn.Pkg())
	if info == nil {
		return 0, false
	}
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key = named.Obj().Name() + "." + fn.Name()
		}
	}
	k, ok := info.Funcs[key]
	return k, ok
}
