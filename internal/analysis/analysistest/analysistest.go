// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the local framework. It
// also resolves the packages the analyzers' call tables name (FuncDecls),
// so each table can be checked against the API it describes.
//
// Testdata lives under <pkg>/testdata/src/<name>/ and may import the real
// repro/internal/... packages: the loader type-checks from source with the
// working directory inside the module, so fixtures exercise the analyzers
// against the actual simulator types rather than stubs.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRx matches one or more quoted regexps after a want marker. Patterns
// may be double-quoted (backslash-escapes apply) or backquoted (raw, the
// x/tools idiom — convenient when the pattern itself contains quotes):
//
//	code() // want "first" `second "quoted"`
var wantRx = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")

var quoteRx = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// Run loads the package in dir (relative paths resolve against the test's
// working directory, e.g. "testdata/src/lockcross"), applies the analyzer,
// and reports unmatched expectations and unexpected diagnostics on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadDir(abs, "")
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("analysistest: type error in fixture: %v", terr)
		}
	}
	findings, err := analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: run: %v", err)
	}

	wants := collectWants(t, loader.Fset, pkgs)
	for _, f := range findings {
		key := posKey(f.Pos.Filename, f.Pos.Line)
		exps := wants[key]
		matched := false
		for _, e := range exps {
			if !e.matched && e.rx.MatchString(f.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.rx)
			}
		}
	}
}

// collectWants scans fixture comments for want markers.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRx.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.Contains(c.Text, "want ") && strings.Contains(c.Text, `"`) {
							t.Errorf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
						}
						continue
					}
					pos := fset.Position(c.Pos())
					for _, q := range quoteRx.FindAllStringSubmatch(m[1], -1) {
						pat := q[2] // backquoted: raw
						if q[2] == "" && strings.HasPrefix(q[0], `"`) {
							var err error
							pat, err = unquote(q[1])
							if err != nil {
								t.Fatalf("%s: bad want pattern %q: %v", pos, q[1], err)
							}
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						key := posKey(pos.Filename, pos.Line)
						wants[key] = append(wants[key], &expectation{rx: rx})
					}
				}
			}
		}
	}
	return wants
}

func unquote(s string) (string, error) {
	// The capture group already stripped the quotes; undo escapes.
	r := strings.NewReplacer(`\"`, `"`, `\\`, `\\`)
	return r.Replace(s), nil
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// FuncDecls type-checks the package a call table names by its last path
// element — the module package in the one directory of that name, else the
// standard-library package of that path — and maps each function and method
// name it declares to the receiver type names declaring it ("" for a
// package-level function). Test files are left out: a table entry must name
// API the simulator itself has. l caches the module's dependencies across
// calls.
func FuncDecls(l *analysis.Loader, base string) (map[string][]string, error) {
	pkg, err := tablePackage(l, base)
	if err != nil {
		return nil, err
	}
	decls := map[string][]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			decls[name] = append(decls[name], "")
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i).Name()
					decls[m] = append(decls[m], name)
				}
			}
		}
	}
	return decls, nil
}

func tablePackage(l *analysis.Loader, base string) (*types.Package, error) {
	root, modpath, err := analysis.ModuleRoot(".")
	if err != nil {
		return nil, err
	}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	dirs = slices.DeleteFunc(dirs, func(d string) bool { return filepath.Base(d) != base })
	switch len(dirs) {
	case 0:
		return importer.ForCompiler(token.NewFileSet(), "source", nil).Import(base)
	case 1:
	default:
		return nil, fmt.Errorf("%d module packages are named %s", len(dirs), base)
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*.go"))
	if err != nil {
		return nil, err
	}
	files = slices.DeleteFunc(files, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	rel, err := filepath.Rel(root, dirs[0])
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadFiles(modpath+"/"+filepath.ToSlash(rel), files)
	if err != nil {
		return nil, err
	}
	if len(pkg.TypeErrors) > 0 {
		return nil, pkg.TypeErrors[0]
	}
	return pkg.Types, nil
}
