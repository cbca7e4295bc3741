package poollife_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poollife"
)

func TestPoollife(t *testing.T) {
	analysistest.Run(t, "testdata/src/poollifetest", poollife.Analyzer)
}

// TestPoollifeFabric is the acceptance fixture: a use-after-Send against
// the real fabric.Message that compiles today must be diagnosed through
// the //tagalint:pooled markers on the fabric's own declarations.
func TestPoollifeFabric(t *testing.T) {
	analysistest.Run(t, "testdata/src/poollifefabric", poollife.Analyzer)
}

// TestPoollifeMemory: a use of a payload snapshot after its release is
// diagnosed through the markers on memory.Snapshot and its Release.
func TestPoollifeMemory(t *testing.T) {
	analysistest.Run(t, "testdata/src/poollifememory", poollife.Analyzer)
}
