package simcall

import (
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestTablesNameRealAPI fails on a table entry whose package, receiver or
// method no longer exists: such an entry silently stops matching anything.
func TestTablesNameRealAPI(t *testing.T) {
	l := analysis.NewLoader()
	for base, byType := range blocking {
		decls, err := analysistest.FuncDecls(l, base)
		if err != nil {
			t.Errorf("blocking[%q]: %v", base, err)
			continue
		}
		for recv, methods := range byType {
			for name := range methods {
				if !slices.Contains(decls[name], recv) {
					t.Errorf("blocking[%q][%q][%q]: %s declares no such function", base, recv, name, base)
				}
			}
		}
	}
	for base := range simErrPackages {
		if _, err := analysistest.FuncDecls(l, base); err != nil {
			t.Errorf("simErrPackages[%q]: %v", base, err)
		}
	}
}
