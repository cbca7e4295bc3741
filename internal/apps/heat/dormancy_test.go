package heat

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// TestTAGASPIWavefrontSkipsIdlePasses gates the polling services'
// dormancy on the workload it was built for: a Gauss–Seidel wavefront of
// 16 TAGASPI ranks, one block row each as in cmd/bench's gs_tagaspi_256n
// but two block columns wide, so that a rank's poller has nothing to do
// but wait for a halo notification for most of the run (about 89% of its
// passes here). At least 80% of the passes must be skipped; if the
// dormancy predicate or a wake hook stops applying, the passes are polled
// again and the count falls.
func TestTAGASPIWavefrontSkipsIdlePasses(t *testing.T) {
	const nodes = 8
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 2, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: time.Microsecond,
	}
	p := Params{Rows: 64 * nodes * 2, Cols: 128, Timesteps: 1, BlockRows: 64, BlockCols: 64}
	res := cluster.Run(cfg, func(env *cluster.Env) { RunTAGASPI(env, p) })
	var passes, skipped float64
	for _, s := range res.Snapshots {
		for _, smp := range s.Samples {
			if s.Component == "tagaspi" && smp.Name == "tagaspi_passes" {
				passes += smp.Value
			}
		}
	}
	for _, st := range res.Tasking {
		skipped += float64(st.SkippedPasses)
	}
	if passes == 0 || skipped < 0.8*passes {
		t.Fatalf("%g of %g polling passes skipped, want at least 80%%", skipped, passes)
	}
	t.Logf("%g of %g polling passes skipped (%.1f%%)", skipped, passes, 100*skipped/passes)
}
