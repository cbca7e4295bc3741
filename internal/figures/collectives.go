package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
)

// Collective-figure geometry: one rank per node, a vector small enough
// that per-step latency (not bandwidth) dominates — the regime where the
// task-aware backend's no-parking property shows up as a lower
// worker-blocked share rather than a bandwidth win.
const (
	collVecLen = 1024 // divisible by every swept node count
	collIters  = 4    // allreduce rounds per point (amortises warmup)
)

// collVariant is one collectives backend under measurement, and the
// application variant whose job it runs in.
type collVariant struct {
	name string
	job  cluster.Variant
}

var collVariants = []collVariant{
	{name: "MPI blocking", job: cluster.MPIOnly},
	{name: "GASPI blocking", job: cluster.MPIOnly},
	{name: "TAGASPI task-aware", job: cluster.TAGASPI},
}

// collBlockedSeries names the companion series carrying the critpath
// worker-blocked share (notify_wait + mpi_lock_wait) of a variant.
func collBlockedSeries(v collVariant) string { return v.name + " blocked %" }

// FigCollectives measures ring-allreduce latency against node count for
// the three collectives backends (internal/collectives), with a companion
// series per backend giving the critical-path share spent blocked in
// notify_wait/mpi_lock_wait. The blocking backends park their rank main
// in gaspi_notify_waitsome or MPI_Wait at every ring step; the task-aware
// backend's steps are tasks gated on tagaspi_notify_iwait external
// events, so its blocked share collapses to the teardown barrier — the
// collectives rendering of the paper's §IV no-parking claim.
func FigCollectives(o Opts) Figure {
	nodesSweep := []int{2, 4, 8}
	switch o.Preset {
	case Full:
		nodesSweep = []int{2, 4, 8, 16}
	case Scale:
		nodesSweep = []int{4, 16, 64}
	}
	xs := toF(nodesSweep)
	series := make([]string, 0, 2*len(collVariants))
	for _, v := range collVariants {
		series = append(series, v.name)
	}
	for _, v := range collVariants {
		series = append(series, collBlockedSeries(v))
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "coll", Title: "Ring allreduce latency: blocking vs task-aware collectives",
			XLabel: "nodes (1 rank/node)", X: xs,
			YLabel: "latency (us per allreduce)",
			Notes: []string{
				fmt.Sprintf("%d-element f64 allreduce, %d rounds per point, OmniPath profile; all backends run the identical ring schedule (bit-identical results)", collVecLen, collIters),
				"blocked % series: critical-path share in notify_wait+mpi_lock_wait — the task-aware backend must stay below both blocking backends at the largest node count (no worker parks inside a collective)",
			},
		},
		Series: series,
	}
	for _, v := range collVariants {
		for _, nodes := range nodesSweep {
			cfg := v.job.Config(nodes, fabric.ProfileOmniPath(), rankPerNode)
			cfg.Recorder = obs.NewCollector(nodes)
			sw.Points = append(sw.Points, exp.Point{
				ID:  fmt.Sprintf("coll/%s/n%d", v.name, nodes),
				X:   float64(nodes),
				Cfg: cfg,
				Main: func(env *cluster.Env) {
					opts := []collectives.Option{
						collectives.WithRecorder(env.Cfg.Recorder),
						collectives.WithElemCost(env.CostOf(1)),
					}
					var c *collectives.Comm
					var err error
					switch {
					case v.job == cluster.TAGASPI:
						c, err = collectives.NewTAGASPI(env.TAGASPI, env.RT, collVecLen, opts...)
					case v.name == "GASPI blocking":
						c, err = collectives.NewGASPI(env.GASPI, collVecLen, opts...)
					default:
						c = collectives.NewMPI(env.MPI, collVecLen, opts...)
					}
					if err != nil {
						panic(err)
					}
					in := make([]float64, collVecLen)
					for i := range in {
						in[i] = float64(int(env.Rank)+1) * float64(i%7+1)
					}
					out := make([]float64, collVecLen)
					for it := 0; it < collIters; it++ {
						c.Allreduce(in, out, collectives.Sum)
					}
					c.Drain()
				},
				Values: func(job cluster.Result) map[string]float64 {
					blocked := 0.0
					if job.Blame != nil {
						blocked = 100 * (job.Blame.Share(critpath.ClassNotifyWait) +
							job.Blame.Share(critpath.ClassMPILockWait))
					}
					return map[string]float64{
						v.name:               job.Elapsed.Seconds() * 1e6 / collIters,
						collBlockedSeries(v): blocked,
					}
				},
			})
		}
	}
	if o.Preset == Scale {
		sw.Fig.ID = "coll-scale"
	}
	return runSweep(o, sw)
}
