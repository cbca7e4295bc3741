package figures

import (
	"fmt"
	"time"

	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
)

// streamPoll is the polling period for the Streaming figures. The paper
// tunes 50us on the full-size input; our inputs are ~16x smaller, so the
// pipeline's time constants shrink accordingly and the tuned period scales
// with them.
const streamPoll = 1 * time.Microsecond

// stPoint is one Streaming run with hybridRPN ranks per node for the
// hybrid variants, yielding the variant's throughput in GElements/s of
// modelled time. The NIC utilisation notes of Fig. 13 read the per-node
// port statistics from the result's retained job stats.
func stPoint(id string, v cluster.Variant, nodes, hybridRPN int, p streaming.Params,
	prof fabric.Profile, poll time.Duration, x float64) exp.Point {
	return exp.Point{
		ID: id,
		X:  x,
		Cfg: v.Config(nodes, prof, cluster.Geometry{
			MPIRanks: coresPerNode, HybridRanks: hybridRPN, HybridCores: coresPerNode / hybridRPN, Poll: poll,
		}),
		Main: func(env *cluster.Env) { streaming.Run(v, env, p) },
		Values: func(job cluster.Result) map[string]float64 {
			return map[string]float64{v.String(): p.Elements() / job.Elapsed.Seconds() / 1e9}
		},
	}
}

// nicPeakTx reduces a result's per-node NIC statistics to the highest
// injection-port busy fraction and the summed injection queueing time — the
// serialization behind Fig. 13's block-size sensitivity.
func nicPeakTx(res cluster.Result) (frac float64, wait time.Duration) {
	if res.Elapsed <= 0 {
		return 0, 0
	}
	for _, nic := range res.NIC {
		if f := nic.Tx.Busy.Seconds() / res.Elapsed.Seconds(); f > frac {
			frac = f
		}
		wait += nic.Tx.Waited
	}
	return frac, wait
}

// stPointID names a Fig. 13 / ablation streaming point.
func stPointID(v cluster.Variant, bs int) string {
	return fmt.Sprintf("%s/bs%d", v, bs)
}

// streamingFigure builds one Fig. 13 panel.
func streamingFigure(o Opts, id, title string, prof fabric.Profile, nodes, hybridRPN int,
	blocks []int, chunkElems, chunks int, notes []string) Figure {
	sw := &exp.Sweep{
		Fig: Figure{
			ID: id, Title: title,
			XLabel: "blocksize", X: toF(blocks),
			YLabel: "GElements/s",
			Notes:  notes,
		},
		Series: variantSeries(),
	}
	for _, v := range cluster.Variants {
		for _, bs := range blocks {
			p := streaming.Params{Chunks: chunks, ChunkElems: chunkElems, BlockSize: bs}
			sw.Points = append(sw.Points,
				stPoint(stPointID(v, bs), v, nodes, hybridRPN, p, prof, streamPoll, float64(bs)))
		}
	}
	lastBS := blocks[len(blocks)-1]
	sw.Post = func(f *Figure, _ map[string][]float64, rs []exp.Result) {
		for _, v := range cluster.Variants {
			for _, r := range rs {
				if r.ID != stPointID(v, lastBS) {
					continue
				}
				frac, wait := nicPeakTx(r.Job)
				f.Notes = append(f.Notes, fmt.Sprintf(
					"nic (block %d, %s): peak tx port busy %.1f%%, total tx queueing %v",
					lastBS, v, 100*frac, wait))
			}
		}
	}
	return runSweep(o, sw)
}

// Fig13aStreamingOmniPath reproduces the upper panel of Figure 13:
// Streaming on the Omni-Path machine, where the PSM2-optimised two-sided
// path keeps MPI-only ahead and emulated ibverbs penalises RDMA.
func Fig13aStreamingOmniPath(o Opts) Figure {
	nodes, chunks := 8, 8
	blocks := []int{256, 512, 1024, 2048, 4096, 8192}
	chunkElems := 128 << 10
	if o.Preset == Quick {
		nodes, chunks = 3, 8
		blocks = []int{256, 2048}
		chunkElems = 16 << 10
	}
	return streamingFigure(o, "13a",
		"Streaming throughput vs block size (Marenostrum4 / Omni-Path)",
		fabric.ProfileOmniPath(), nodes, 2, blocks, chunkElems, chunks,
		[]string{
			"paper: 64 nodes, 250 chunks x 768K elements; here reduced geometry",
			"paper result: MPI-only best overall (PSM2-optimised fabric); TAGASPI nearly matches it from 2K blocks; TAMPI collapses below 8K",
		})
}

// Fig13bStreamingInfiniBand reproduces the lower panel of Figure 13:
// Streaming on the InfiniBand machine, where native ibverbs lets TAGASPI
// outperform both two-sided variants.
func Fig13bStreamingInfiniBand(o Opts) Figure {
	nodes, chunks := 6, 8
	blocks := []int{256, 512, 1024, 2048, 4096, 8192}
	chunkElems := 128 << 10
	if o.Preset == Quick {
		nodes, chunks = 3, 8
		blocks = []int{256, 2048}
		chunkElems = 16 << 10
	}
	return streamingFigure(o, "13b",
		"Streaming throughput vs block size (CTE-AMD / InfiniBand)",
		fabric.ProfileInfiniBand(), nodes, 1, blocks, chunkElems, chunks,
		[]string{
			"paper: 16 nodes, 250 chunks x 1024K elements; here reduced geometry",
			"paper result: TAGASPI wins clearly (1.53x over MPI-only, 2.14x over TAMPI at 4K blocks); MPI-only shows high variance",
		})
}
