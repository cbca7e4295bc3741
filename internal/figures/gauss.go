package figures

import (
	"fmt"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
)

// gsGeometry is the Gauss–Seidel layout of the three variants.
var gsGeometry = cluster.Geometry{
	MPIRanks:    coresPerNode,
	HybridRanks: hybridRanks,
	HybridCores: coresPerNode / hybridRanks,
	// The paper tunes 150us on the full-size input; with the ~16x reduced
	// inputs the tuned period scales down accordingly.
	Poll: 5 * time.Microsecond,
}

// gsPoint is one Gauss–Seidel run, yielding the variant's throughput in
// GUpdates/s of modelled time.
func gsPoint(v cluster.Variant, nodes int, p heat.Params, prof fabric.Profile, x float64) exp.Point {
	return exp.Point{
		ID:   fmt.Sprintf("%s/n%d/b%dx%d", v, nodes, p.BlockRows, p.BlockCols),
		X:    x,
		Cfg:  v.Config(nodes, prof, gsGeometry),
		Main: func(env *cluster.Env) { heat.Run(v, env, p) },
		Values: func(job cluster.Result) map[string]float64 {
			return map[string]float64{v.String(): p.Updates() / job.Elapsed.Seconds() / 1e9}
		},
	}
}

// gsParams builds the scaled input. The matrix is sized so every node
// count in the sweep divides it; hybrid blocks are square (paper: 512²),
// MPI-only blocks are column strips (paper: 1024 columns).
func gsParams(maxNodes, blockRows, blockCols, steps int) heat.Params {
	return heat.Params{
		Rows:      64 * maxNodes * hybridRanks, // rp >= 64 rows at max scale
		Cols:      2048,
		Timesteps: steps,
		BlockRows: blockRows,
		BlockCols: blockCols,
	}
}

// Fig09GaussSeidelScaling reproduces Figure 9: strong scaling of the three
// variants with their optimal block sizes; speedup (vs MPI-only on one
// node) and parallel efficiency (vs each variant on one node).
func Fig09GaussSeidelScaling(o Opts) Figure {
	maxNodes := 16
	steps := 10
	switch o.Preset {
	case Quick:
		maxNodes, steps = 4, 6
	case Scale:
		// Paper scale: 256 nodes (2048 MPI-only ranks, 512 hybrid ranks at
		// the top point). Fewer timesteps keep the whole sweep in minutes
		// of host time; the steady-state throughput shape is established
		// after the first step's warm-up.
		maxNodes, steps = 256, 3
	}
	nodes := doubling(maxNodes)
	prof := fabric.ProfileOmniPath()
	// "Optimal" blocks at this scale (paper: 512² hybrid, 1024-col strips).
	p := gsParams(maxNodes, 64, 64, steps)
	pm := p
	pm.BlockCols = 256

	sw := &exp.Sweep{
		Fig: Figure{
			ID: "9", Title: "Gauss-Seidel strong scaling (speedup and efficiency)",
			XLabel: "nodes", X: toF(nodes),
			YLabel: "speedup vs MPI-only@1 / efficiency",
			Notes: []string{
				"paper: 256Kx128K, 1000 steps, 1-256 nodes on Marenostrum4; here 16x-reduced geometry in virtual time",
				"paper result: TAGASPI 1.15x over MPI-only and 1.06x over TAMPI at the largest scale",
			},
		},
		Series: variantSeries(),
	}
	for _, n := range nodes {
		for _, v := range cluster.Variants {
			pp := pm
			if v != cluster.MPIOnly {
				pp = p
			}
			sw.Points = append(sw.Points, gsPoint(v, n, pp, prof, float64(n)))
		}
	}
	if o.Preset == Scale {
		// Scale rows carry their own fig id so the BENCH_host.json scale
		// series never collides with the curated Quick baseline rows.
		sw.Fig.ID = "9-scale"
	}
	sw.Post = func(f *Figure, raw map[string][]float64, _ []exp.Result) {
		base := raw[cluster.MPIOnly.String()][0]
		f.Series = nil
		for _, v := range cluster.Variants {
			thr := raw[v.String()]
			f.Series = append(f.Series,
				Series{Name: v.String() + " speedup", Y: exp.Speedup(thr, base)},
				Series{Name: v.String() + " eff", Y: exp.Efficiency(thr, f.X)})
		}
	}
	return runSweep(o, sw)
}

// Fig10GaussSeidelBlocksize reproduces Figure 10: throughput while varying
// the block size at a fixed large scale, stressing communication.
func Fig10GaussSeidelBlocksize(o Opts) Figure {
	nodes := 8
	steps := 6
	// The paper sweeps 64..2048 on the full-size input; the equivalent
	// range at this scale (matching the compute-per-block to overhead
	// ratios) is 16..128.
	blocks := []int{16, 32, 64, 128}
	switch o.Preset {
	case Quick:
		nodes, steps = 4, 6
		blocks = []int{16, 32}
	case Scale:
		// The paper evaluates Fig. 10 at 128 nodes.
		nodes, steps = 128, 3
	}
	prof := fabric.ProfileOmniPath()
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "10", Title: "Gauss-Seidel throughput vs block size",
			XLabel: "blocksize", X: toF(blocks),
			YLabel: "GUpdates/s",
			Notes: []string{
				"paper: 128Kx128K, 500 steps, 128 nodes, blocks 64-2048; here reduced geometry",
				"paper result: TAGASPI wins everywhere; at the smallest block it keeps ~60% of peak vs 41% (MPI-only) and 30% (TAMPI)",
			},
		},
		Series: variantSeries(),
	}
	if o.Preset == Scale {
		sw.Fig.ID = "10-scale"
	}
	for _, v := range cluster.Variants {
		for _, bs := range blocks {
			p := gsParams(2*nodes, bs, bs, steps) // rp=128: room for 128-blocks
			if v == cluster.MPIOnly {
				// The paper's x-axis is the MPI-only columns-per-block.
				p.BlockRows = 0
				p.BlockCols = bs
			}
			sw.Points = append(sw.Points, gsPoint(v, nodes, p, prof, float64(bs)))
		}
	}
	return runSweep(o, sw)
}
