// Package tagalint aggregates the repository's analyzers into the suite
// run by cmd/tagalint, the tier-1 gate and the analysis tests. Each
// analyzer encodes one invariant the simulator's correctness rests on; see
// the individual packages and the "Static analysis & invariants" section
// of README.md.
package tagalint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/detlint"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockcross"
	"repro/internal/analysis/simerr"
	"repro/internal/analysis/taskctx"
)

// Suite returns the full tagalint analyzer set in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detlint.Analyzer,
		hotalloc.Analyzer,
		lockcross.Analyzer,
		simerr.Analyzer,
		taskctx.Analyzer,
	}
}
