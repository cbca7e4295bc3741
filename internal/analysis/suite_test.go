package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/tagalint"
)

// TestRepoCleanUnderTagalint is the tier-1 wiring of the lint suite: it
// runs every tagalint analyzer over the whole module (as `go run
// ./cmd/tagalint -stale-ignores=error ./...` does) and fails on any finding
// or stale //lint:ignore, so a broken invariant or a dead suppression fails
// `go test ./...` even when the offending package's own tests pass.
func TestRepoCleanUnderTagalint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check; skipped in -short mode")
	}
	root, _, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error: %s: %v", pkg.Path, terr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	findings, sups, err := analysis.RunWithSuppressions(loader.Fset, pkgs, tagalint.Suite())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	for _, s := range analysis.Stale(sups) {
		t.Errorf("stale suppression (silences nothing, remove it): %s", s)
	}
}
