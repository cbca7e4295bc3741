package figures

import (
	"fmt"
	"time"

	"repro/internal/apps/miniamr"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
)

// amrSeries is the series declaration shared by both miniAMR figures:
// total and no-refinement (NR) throughput per variant.
var amrSeries = []string{
	"MPI-Only", "MPI-Only (NR)",
	"TAMPI", "TAMPI (NR)",
	"TAGASPI", "TAGASPI (NR)",
}

// amrGeometry is the miniAMR layout of the three variants.
var amrGeometry = cluster.Geometry{
	MPIRanks:    coresPerNode,
	HybridRanks: amrHybridRank,
	HybridCores: coresPerNode / amrHybridRank,
	// Scaled from the paper's 150us optimum (16x smaller input).
	Poll: 5 * time.Microsecond,
}

// amrPoint is one miniAMR run, yielding the variant's total and
// no-refinement (NR) throughput in GUpdates/s of modelled time.
func amrPoint(v cluster.Variant, nodes int, p miniamr.Params, x float64) exp.Point {
	cfg := miniamr.Config(v, nodes, fabric.ProfileOmniPath(), amrGeometry)
	job := miniamr.NewJob(p, cfg.Nodes*cfg.RanksPerNode)
	return exp.Point{
		ID:   fmt.Sprintf("%s/n%d/v%d", v, nodes, p.Vars),
		X:    x,
		Cfg:  cfg,
		Main: func(env *cluster.Env) { job.Run(v, env) },
		Values: func(res cluster.Result) map[string]float64 {
			total, nr, _ := job.Throughput(res.Elapsed)
			return map[string]float64{v.String(): total, v.String() + " (NR)": nr}
		},
	}
}

// amrParams is the scaled miniAMR input (paper: the §VI-B input with 20
// variables and one face per message).
func amrParams(vars, steps int) miniamr.Params {
	return miniamr.Params{
		Grid:        [3]int{4, 4, 4},
		Cells:       4,
		Vars:        vars,
		Steps:       steps,
		RefineEvery: 5,
		MaxLevel:    2,
		Radius:      0.45,
	}
}

// Fig11MiniAMRScaling reproduces Figure 11: miniAMR strong scaling with 20
// variables; speedup and efficiency for total time and assuming negligible
// refinement (NR).
func Fig11MiniAMRScaling(o Opts) Figure {
	maxNodes := 16
	steps := 20
	if o.Preset == Quick {
		maxNodes, steps = 2, 10
	}
	nodes := doubling(maxNodes)
	p := amrParams(20, steps)
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "11", Title: "miniAMR strong scaling (speedup, total and NR)",
			XLabel: "nodes", X: toF(nodes),
			YLabel: "speedup vs MPI-only@1",
			Notes: []string{
				"paper: 1-256 nodes, 20 variables, one face per message, Marenostrum4",
				"paper result: TAGASPI 1.41x over both at the largest scale; NR efficiencies 0.84/0.73/0.58",
			},
		},
		Series: amrSeries,
	}
	for _, v := range cluster.Variants {
		for _, n := range nodes {
			sw.Points = append(sw.Points, amrPoint(v, n, p, float64(n)))
		}
	}
	sw.Post = func(f *Figure, raw map[string][]float64, _ []exp.Result) {
		base := raw[cluster.MPIOnly.String()][0]
		f.Series = nil
		for _, v := range cluster.Variants {
			name := v.String()
			f.Series = append(f.Series,
				Series{Name: name, Y: exp.Speedup(raw[name], base)},
				Series{Name: name + " (NR)", Y: exp.Speedup(raw[name+" (NR)"], base)})
		}
	}
	return runSweep(o, sw)
}

// Fig12MiniAMRVariables reproduces Figure 12: throughput at a fixed large
// scale while varying the computed variables.
func Fig12MiniAMRVariables(o Opts) Figure {
	nodes := 8
	steps := 20
	vars := []int{10, 20, 30, 40}
	if o.Preset == Quick {
		nodes, steps = 2, 10
		vars = []int{10, 20}
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "12", Title: "miniAMR throughput vs computed variables",
			XLabel: "variables", X: toF(vars),
			YLabel: "GUpdates/s (total and NR)",
			Notes: []string{
				"paper: 128 nodes, 10-40 variables",
				"paper result: TAGASPI best everywhere; at 20 variables 1.46x over MPI-only and 1.40x over TAMPI (NR)",
			},
		},
		Series: amrSeries,
	}
	for _, v := range cluster.Variants {
		for _, nv := range vars {
			sw.Points = append(sw.Points, amrPoint(v, nodes, amrParams(nv, steps), float64(nv)))
		}
	}
	return runSweep(o, sw)
}
