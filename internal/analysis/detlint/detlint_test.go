package detlint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detlint"
)

func TestDetlint(t *testing.T) {
	analysistest.Run(t, "testdata/src/detlinttest", detlint.Analyzer)
}

// TestDetlintExemptPackages checks the allowlist: a package whose path
// ends in exp may read the host clock without findings.
func TestDetlintExemptPackages(t *testing.T) {
	analysistest.Run(t, "testdata/src/exp", detlint.Analyzer)
}
