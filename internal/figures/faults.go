package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
)

// AblationFaultInjection sweeps the injected fault (drop) rate under the
// Gauss–Seidel workload for the MPI-only and TAGASPI variants. Both message
// classes fault at the same rate, but the failure semantics differ: MPI
// drops retransmit transparently inside the fabric (a pure latency cost),
// while GASPI drops surface through the queue error state and are absorbed
// by TAGASPI's repair-and-retry policy (DESIGN.md §9). The figure shows how
// much throughput each recovery path preserves as links degrade; the
// numerics stay bit-exact at every rate (see the heat package fault tests).
func AblationFaultInjection(o Opts) Figure {
	nodes := 4
	steps := 6
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
	if o.Preset == Quick {
		nodes = 2
		rates = []float64{0, 0.05, 0.2}
	}
	prof := fabric.ProfileOmniPath()
	variants := []cluster.Variant{cluster.MPIOnly, cluster.TAGASPI}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "faults", Title: "Gauss-Seidel throughput vs injected fault rate",
			XLabel: "drop rate", X: rates,
			YLabel: "GUpdates/s",
			Notes: []string{
				"fault plane: per-message drop probability on every inter-node link, both classes",
				"MPI drops retransmit transparently; GASPI drops error the queue and ride TAGASPI's retry policy",
				"expected shape: MPI-only degrades mildly (retransmits cost only latency); TAGASPI falls faster at high rates (queue repair + backoff) but always completes with bit-exact results",
			},
		},
		Series: []string{variants[0].String(), variants[1].String()},
	}
	for _, v := range variants {
		for _, r := range rates {
			p := gsParams(nodes, 64, 64, steps)
			if v == cluster.MPIOnly {
				p.BlockRows, p.BlockCols = 0, 256
			}
			pt := gsPoint(v, nodes, p, prof, r)
			// The rate must be part of the ID: point seeds derive from it,
			// and ids must be unique within the sweep.
			pt.ID = fmt.Sprintf("%s/f%g", pt.ID, r)
			pt.Cfg.Faults = fabric.FaultPlan{MPIDrop: r, GASPIDrop: r}
			sw.Points = append(sw.Points, pt)
		}
	}
	return runSweep(o, sw)
}
