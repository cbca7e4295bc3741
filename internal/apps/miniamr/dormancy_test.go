package miniamr

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// TestTAMPISkipsIdlePassesBetweenRefinements gates TAMPI's dormancy on
// cmd/bench's amr_tagaspi_8n job (8×2 ranks of 4 cores, 5µs polls, seed 7):
// the halo exchanges go over TAGASPI, so a rank's TAMPI service has a
// request listed only while blocks migrate after a refinement, and its
// TAGASPI service only while halos are in flight. At least 40% of both
// services' passes must be skipped (about 45% here). If TAMPI's service
// polled through the steps between refinements, the share would fall to
// about 24%.
func TestTAMPISkipsIdlePassesBetweenRefinements(t *testing.T) {
	p := Params{
		Grid: [3]int{4, 4, 2}, Cells: 8, Vars: 10,
		Steps: 40, RefineEvery: 5, MaxLevel: 1, Radius: 0.5,
	}
	g := cluster.Geometry{HybridRanks: 2, HybridCores: 4, Poll: 5 * time.Microsecond}
	cfg := Config(cluster.TAGASPI, 8, fabric.ProfileOmniPath(), g)
	cfg.Seed = fabric.SeedOf("amr_tagaspi_8n", "7")
	epochs := p.Epochs(cfg.Nodes * cfg.RanksPerNode)
	res := cluster.Run(cfg, func(env *cluster.Env) { RunTAGASPI(env, p, epochs) })
	var passes, skipped float64
	for _, s := range res.Snapshots {
		for _, smp := range s.Samples {
			if smp.Name == "tampi_passes" || smp.Name == "tagaspi_passes" {
				passes += smp.Value
			}
		}
	}
	for _, st := range res.Tasking {
		skipped += float64(st.SkippedPasses)
	}
	if passes == 0 || skipped < 0.4*passes {
		t.Fatalf("%g of %g polling passes skipped, want at least 40%%", skipped, passes)
	}
	t.Logf("%g of %g polling passes skipped (%.1f%%)", skipped, passes, 100*skipped/passes)
}
