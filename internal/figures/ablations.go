package figures

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/tasking"
)

// must fails fast on simulator API errors: the ablation drivers run fixed,
// deterministic configurations, so any error is a programming bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// AblationMPILockBlowup reproduces the in-text §VI-C observation: shrinking
// the Streaming block size multiplies the total time spent inside MPI (the
// THREAD_MULTIPLE lock) far beyond the increase in message count — the
// paper measures a 27x blowup from 8192- to 2048-element blocks.
func AblationMPILockBlowup(o Opts) Figure {
	nodes, chunks, chunk := 4, 16, 64<<10
	blocks := []int{256, 512, 1024, 2048, 4096}
	if o.Preset == Quick {
		nodes, chunks, chunk = 3, 6, 16<<10
		blocks = []int{512, 2048}
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "lock", Title: "TAMPI Streaming: total time inside MPI vs block size",
			XLabel: "blocksize", X: toF(blocks),
			YLabel: "MPI seconds (modelled, all ranks) / messages",
			Notes: []string{
				"paper (§VI-C): MPI time grows 27x from block 8192 to 2048 while messages grow 4x: the THREAD_MULTIPLE lock",
			},
		},
		Series: []string{"MPI time (s)", "messages"},
	}
	for _, bs := range blocks {
		p := streaming.Params{Chunks: chunks, ChunkElems: chunk, BlockSize: bs}
		sw.Points = append(sw.Points, exp.Point{
			ID: stPointID(cluster.TAMPI, bs),
			X:  float64(bs),
			Cfg: cluster.TAMPI.Config(nodes, fabric.ProfileOmniPath(), cluster.Geometry{
				HybridRanks: 1, HybridCores: coresPerNode, Poll: 50 * time.Microsecond,
			}),
			Main: func(env *cluster.Env) { streaming.RunTAMPI(env, p) },
			Values: func(job cluster.Result) map[string]float64 {
				return map[string]float64{
					"MPI time (s)": job.TotalMPITime().Seconds(),
					"messages":     float64(job.Fabric.Messages),
				}
			},
		})
	}
	return runSweep(o, sw)
}

// AblationCritPathBlame runs the three Gauss–Seidel variants instrumented
// and reduces each run's critical-path blame report (cluster.Result.Blame,
// DESIGN.md §10) to per-class makespan shares. It verifies the paper's
// causal claim from the repo's own telemetry: the MPI-based variants spend
// critical-path time serializing on the THREAD_MULTIPLE lock (application
// calls for TAMPI, the progress engine even for single-threaded MPI-Only
// ranks), while TAGASPI's notified one-sided path never touches that lock.
func AblationCritPathBlame(o Opts) Figure {
	nodes, steps := 4, 8
	if o.Preset == Quick {
		nodes, steps = 2, 4
	}
	p := gsParams(nodes, 32, 32, steps)
	classes := []critpath.Class{
		critpath.ClassCompute, critpath.ClassFabric, critpath.ClassLinkContend,
		critpath.ClassNotifyWait, critpath.ClassMPILockWait, critpath.ClassRetry,
		critpath.ClassIdle,
	}
	series := make([]string, len(classes))
	for i, c := range classes {
		series[i] = c.String()
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "blame", Title: "Gauss-Seidel critical-path blame by variant",
			XLabel: "variant (0=MPI-Only, 1=TAMPI, 2=TAGASPI)", X: []float64{0, 1, 2},
			YLabel: "% of makespan on the critical path",
			Notes: []string{
				"paper (§VI-C): MPI variants serialize on the THREAD_MULTIPLE lock; TAGASPI's one-sided notify path does not — its mpi_lock_wait share must be strictly below MPI-Only's",
			},
		},
		Series: series,
	}
	for _, v := range cluster.Variants {
		cfg := v.Config(nodes, fabric.ProfileOmniPath(), gsGeometry)
		cfg.Recorder = obs.NewCollector(cfg.Nodes * cfg.RanksPerNode)
		sw.Points = append(sw.Points, exp.Point{
			ID:   fmt.Sprintf("blame/%s", v),
			X:    float64(v),
			Cfg:  cfg,
			Main: func(env *cluster.Env) { heat.Run(v, env, p) },
			Values: func(job cluster.Result) map[string]float64 {
				vals := make(map[string]float64, len(classes))
				for _, c := range classes {
					share := 0.0
					if job.Blame != nil {
						share = 100 * job.Blame.Share(c)
					}
					vals[c.String()] = share
				}
				return vals
			},
		})
	}
	return runSweep(o, sw)
}

// AblationPollingPeriod reproduces the §VI polling-frequency tuning: the
// task-aware libraries' throughput as a function of the polling-task
// period, for a communication-bound workload (Streaming / TAGASPI) and a
// compute-bound one (Gauss–Seidel), whose lower communication intensity
// tolerates coarser polling.
func AblationPollingPeriod(o Opts) Figure {
	nodes, chunks, chunk, bs := 4, 16, 32<<10, 512
	periods := []int{10, 50, 150, 500, 1500}
	if o.Preset == Quick {
		nodes, chunks, chunk = 3, 6, 8<<10
		periods = []int{50, 500}
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "poll", Title: "TAGASPI Streaming throughput vs polling period",
			XLabel: "period (us)", X: toF(periods),
			YLabel: "GElements/s",
			Notes: []string{
				"paper (§VI): optimal polling period is workload-dependent: 150us for Gauss-Seidel and miniAMR, 50us for Streaming (CTE-AMD TAMPI even needs a dedicated core)",
			},
		},
		Series: []string{"TAGASPI", "Gauss-Seidel"},
	}
	for _, us := range periods {
		p := streaming.Params{Chunks: chunks, ChunkElems: chunk, BlockSize: bs}
		sw.Points = append(sw.Points, stPoint(
			fmt.Sprintf("stream/p%dus", us), cluster.TAGASPI, nodes, 1, p,
			fabric.ProfileInfiniBand(), time.Duration(us)*time.Microsecond, float64(us)))
	}
	for _, us := range periods {
		p := gsParams(4, 32, 32, 6)
		g := gsGeometry
		g.Poll = time.Duration(us) * time.Microsecond
		sw.Points = append(sw.Points, exp.Point{
			ID:   fmt.Sprintf("gauss/p%dus", us),
			X:    float64(us),
			Cfg:  cluster.TAGASPI.Config(4, fabric.ProfileInfiniBand(), g),
			Main: func(env *cluster.Env) { heat.RunTAGASPI(env, p) },
			Values: func(job cluster.Result) map[string]float64 {
				return map[string]float64{"Gauss-Seidel": p.Updates() / job.Elapsed.Seconds() / 1e9}
			},
		})
	}
	return runSweep(o, sw)
}

// AblationRMANotification reproduces the §III analysis: notifying remote
// completion with MPI RMA (put + flush + two-sided message) costs an extra
// round-trip versus GASPI's write+notify, and the gap dominates for small
// messages.
func AblationRMANotification(o Opts) Figure {
	sizes := []int{64, 512, 4096, 32768, 262144}
	iters := 50
	if o.Preset == Quick {
		sizes = []int{64, 4096}
		iters = 10
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "rma", Title: "Notified one-sided transfer latency: MPI put+flush+send vs GASPI write_notify",
			XLabel: "bytes", X: toF(sizes),
			YLabel: "us per notified transfer (modelled)",
			Notes: []string{
				"paper (§III, after Belli et al.): the flush needs a remote ack round-trip and the notification is an extra two-sided message",
			},
		},
		Series: []string{"MPI put+flush+send", "GASPI write_notify"},
	}
	for _, sz := range sizes {
		sw.Points = append(sw.Points, rmaNotifyPoint(sz, iters))
	}
	return runSweep(o, sw)
}

// rmaNotifyPoint measures both §III notification idioms on a 2-rank job.
func rmaNotifyPoint(size, iters int) exp.Point {
	var mu sync.Mutex
	var mpiAvg, gaspiAvg time.Duration
	return exp.Point{
		ID: fmt.Sprintf("rma/%dB", size),
		X:  float64(size),
		Cfg: cluster.Config{
			Nodes: 2, RanksPerNode: 1, CoresPerRank: 1,
			Profile: fabric.ProfileInfiniBand(),
		},
		Main: func(env *cluster.Env) {
			seg, err := env.GASPI.SegmentCreate(0, size)
			must(err)
			winSeg, err := env.GASPI.SegmentCreate(1, size)
			if err != nil {
				panic(err)
			}
			win := env.MPI.WinCreate(winSeg)
			env.MPI.Barrier()
			clk := env.Clk
			switch env.Rank {
			case 0:
				buf := make([]byte, size)
				// MPI idiom: Put + Win_flush + empty Send (§III listing).
				t0 := clk.Now()
				for i := 0; i < iters; i++ {
					env.MPI.Put(win, buf, 1, 0)
					env.MPI.Flush(win, 1)
					env.MPI.Send(nil, 1, 0)
					env.MPI.Recv(nil, 1, 1) // receiver-consumed ack to serialize
				}
				m := (clk.Now() - t0) / time.Duration(iters)
				// GASPI idiom: write_notify; completion observed via the
				// receiver's notification-based ack.
				t1 := clk.Now()
				for i := 0; i < iters; i++ {
					must(env.GASPI.WriteNotify(0, 0, 1, 0, 0, size, 0, 1, 0, nil))
					env.GASPI.Wait(0)
					env.GASPI.Drain(0)
					env.GASPI.NotifyWaitSome(0, 1, 1, gaspisim.Block)
					env.GASPI.NotifyReset(0, 1)
				}
				g := (clk.Now() - t1) / time.Duration(iters)
				mu.Lock()
				mpiAvg, gaspiAvg = m, g
				mu.Unlock()
			case 1:
				for i := 0; i < iters; i++ {
					env.MPI.Recv(nil, 0, 0) // data-arrived notification
					env.MPI.Send(nil, 0, 1)
				}
				for i := 0; i < iters; i++ {
					env.GASPI.NotifyWaitSome(0, 0, 1, gaspisim.Block)
					env.GASPI.NotifyReset(0, 0)
					must(env.GASPI.Notify(0, 0, 1, 1, 0, nil)) // ack back
					env.GASPI.Wait(0)
					env.GASPI.Drain(0)
				}
				_ = seg
			}
		},
		Values: func(cluster.Result) map[string]float64 {
			mu.Lock()
			defer mu.Unlock()
			return map[string]float64{
				"MPI put+flush+send": mpiAvg.Seconds() * 1e6,
				"GASPI write_notify": gaspiAvg.Seconds() * 1e6,
			}
		},
	}
}

// AblationOnready reproduces the §V-A comparison: waiting the consumer ack
// with an extra predecessor task (Figure 5) versus the onready clause on
// the writer task (Figure 8), in an iterative producer-consumer loop.
func AblationOnready(o Opts) Figure {
	iterations := []int{64, 256, 1024}
	if o.Preset == Quick {
		iterations = []int{32, 64}
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "onready", Title: "Producer-consumer: extra ack-wait task vs onready clause",
			XLabel: "iterations", X: toF(iterations),
			YLabel: "us total (modelled)",
			Notes: []string{
				"paper (§V-A): the onready clause removes one task per write, improving performance and programmability",
			},
		},
		Series: []string{"extra wait-ack task", "onready"},
	}
	for _, iters := range iterations {
		sw.Points = append(sw.Points,
			producerConsumerPoint(iters, false),
			producerConsumerPoint(iters, true))
	}
	return runSweep(o, sw)
}

// producerConsumerPoint runs the Figure 5 / Figure 8 loops over several
// concurrent chunk slots ("real applications will work with multiple
// chunks in parallel", §IV-B), yielding the modelled completion time in
// microseconds under the matching series.
func producerConsumerPoint(iters int, useOnready bool) exp.Point {
	const (
		N     = 2048 // bytes per chunk slot
		slots = 16
	)
	name := "extra wait-ack task"
	if useOnready {
		name = "onready"
	}
	return exp.Point{
		ID: fmt.Sprintf("%s/i%d", map[bool]string{false: "ackwait", true: "onready"}[useOnready], iters),
		X:  float64(iters),
		Cfg: cluster.TAGASPI.Config(2, fabric.ProfileInfiniBand(), cluster.Geometry{
			HybridRanks: 1, HybridCores: 2, Poll: 5 * time.Microsecond,
		}),
		Main: func(env *cluster.Env) {
			seg, err := env.GASPI.SegmentCreate(0, slots*N)
			must(err)
			tg, rt := env.TAGASPI, env.RT
			dataID := func(j int) gaspisim.NotificationID { return gaspisim.NotificationID(j) }
			ackID := func(j int) gaspisim.NotificationID { return gaspisim.NotificationID(slots + j) }
			switch env.Rank {
			case 0:
				acks := make([]int64, slots)
				for i := 0; i < iters; i++ {
					for j := 0; j < slots; j++ {
						lo, hi := j*N, (j+1)*N
						if useOnready {
							rt.Submit(func(tk *tasking.Task) {
								must(tg.WriteNotify(tk, 0, lo, 1, 0, lo, N, dataID(j), int64(i+1), j%4))
							}, tasking.WithDeps(tasking.In(seg, lo, hi)),
								tasking.WithOnReady(func(tk *tasking.Task) {
									tg.NotifyIwait(tk, 0, ackID(j), nil)
								}))
						} else {
							rt.Submit(func(tk *tasking.Task) {
								tg.NotifyIwait(tk, 0, ackID(j), &acks[j])
							}, tasking.WithDeps(tasking.OutVal(&acks[j])))
							rt.Submit(func(tk *tasking.Task) {
								must(tg.WriteNotify(tk, 0, lo, 1, 0, lo, N, dataID(j), int64(i+1), j%4))
							}, tasking.WithDeps(tasking.In(seg, lo, hi), tasking.InVal(&acks[j])))
						}
						rt.Submit(func(tk *tasking.Task) {
							tk.Compute(env.CostOf(6 * N))
						}, tasking.WithDeps(tasking.InOut(seg, lo, hi)))
					}
					rt.Throttle(2048)
				}
			case 1:
				rt.Submit(func(tk *tasking.Task) {
					for j := 0; j < slots; j++ {
						must(tg.Notify(tk, 0, 0, ackID(j), 1, j%4))
					}
				})
				got := make([]int64, slots)
				for i := 0; i < iters; i++ {
					last := i == iters-1
					for j := 0; j < slots; j++ {
						lo, hi := j*N, (j+1)*N
						rt.Submit(func(tk *tasking.Task) {
							tg.NotifyIwait(tk, 0, dataID(j), &got[j])
						}, tasking.WithDeps(tasking.Out(seg, lo, hi), tasking.OutVal(&got[j])))
						rt.Submit(func(tk *tasking.Task) {
							tk.Compute(env.CostOf(6 * N))
							if !last {
								must(tg.Notify(tk, 0, 0, ackID(j), 1, j%4))
							}
						}, tasking.WithDeps(tasking.InOut(seg, lo, hi), tasking.InVal(&got[j])))
					}
					rt.Throttle(2048)
				}
			}
		},
		Values: func(job cluster.Result) map[string]float64 {
			return map[string]float64{name: job.Elapsed.Seconds() * 1e6}
		},
	}
}
