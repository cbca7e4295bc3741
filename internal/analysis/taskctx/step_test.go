package taskctx

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestStepTakersNameRealAPI fails on a stepTakers entry that names no
// function or method of its package: such an entry silently checks nothing.
func TestStepTakersNameRealAPI(t *testing.T) {
	l := analysis.NewLoader()
	for base, names := range stepTakers {
		decls, err := analysistest.FuncDecls(l, base)
		if err != nil {
			t.Errorf("stepTakers[%q]: %v", base, err)
			continue
		}
		for name := range names {
			if len(decls[name]) == 0 {
				t.Errorf("stepTakers[%q][%q]: %s declares no such function", base, name, base)
			}
		}
	}
}
