package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/tasking"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// A probe is an isolated micro-job on one layer, measured from outside
// through the layer's public functions: host nanoseconds (or microseconds)
// per operation, and for the courier also allocations per operation.
//
// Every goroutine that touches a virtual clock here is registered with it
// (onClock, or a cluster.Run rank main). The clock counts registered
// goroutines to find quiescence; a sender it does not know about races its
// advance step (README "Known defects").
type probe struct {
	// run performs about n operations (n/10 under smoke) and returns the
	// measured values by metric name.
	n   int
	run func(n int) map[string]float64
}

// timed runs fn and returns host nanoseconds per op.
func timed(ops int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / float64(ops)
}

// onClock runs each fn as a goroutine registered with clk and waits for all
// of them. Every goroutine is registered before any starts: launched one
// clk.Go at a time, the first could park before the clock knows the second
// exists, and a clock whose only goroutine is parked reports a deadlock.
func onClock(clk *vclock.VirtualClock, fns ...func()) {
	var wg sync.WaitGroup
	for range fns {
		clk.Register()
	}
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer clk.Unregister()
			fn()
		}()
	}
	wg.Wait()
}

// inRank0 runs a cluster job and returns the host ns/op that rank 0
// measured around its part (set-up and tear-down of the job excluded).
// Rank mains wait at a start gate: in a two-rank job whose first operation
// waits for the peer, a launch that stalls after rank 0 is otherwise a
// reported deadlock.
func inRank0(cfg cluster.Config, ops int, main func(env *cluster.Env, timeIt func(func()))) float64 {
	var ns float64
	enter := startGate(cfg.Nodes*cfg.RanksPerNode, nil)
	cluster.Run(cfg, func(env *cluster.Env) {
		enter()
		main(env, func(fn func()) {
			if env.Rank == 0 {
				ns = timed(ops, fn)
			} else {
				fn()
			}
		})
	})
	return ns
}

func pair(tasking, tampi, tagaspi bool) cluster.Config {
	return cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 2,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: tasking, WithTAMPI: tampi, WithTAGASPI: tagaspi,
		TAMPIPoll: pollPeriod, TAGASPIPoll: pollPeriod,
		Seed: 1,
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fabricSend measures one uninstrumented Send through injection, the
// route's hops and delivery, a window of 64 in flight per wakeup (how the
// protocol layers drive the couriers).
func fabricSend(shape fabric.Shape, nodes, n int) (ns, allocs float64) {
	const window = 64
	n = max(n, window)
	clk := vclock.NewVirtual()
	f := fabric.New(clk, fabric.NewShapedTopology(shape, nodes, 1), fabric.ProfileOmniPath())
	dst := fabric.Rank(nodes - 1)
	sender := clk.Parker()
	var got atomic.Int32
	f.Register(dst, fabric.ClassMPI, func(*fabric.Message) {
		if got.Add(1) == window {
			got.Store(0)
			sender.Unpark()
		}
	})
	round := func() {
		for i := 0; i < window; i++ {
			m := fabric.NewMessage()
			m.Src, m.Dst, m.Class, m.Size = 0, dst, fabric.ClassMPI, 256
			f.Send(m)
		}
		sender.Park()
	}
	onClock(clk, func() {
		round() // courier spawn, queue growth, pool fill
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns = timed(n/window*window, func() {
			for i := 0; i < n/window; i++ {
				round()
			}
		})
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n/window*window)
	})
	f.Close()
	return ns, allocs
}

func mpiPingPong(size, n int) float64 {
	return inRank0(pair(false, false, false), 2*n, func(env *cluster.Env, timeIt func(func())) {
		buf := make([]byte, size)
		me, peer := int(env.Rank), mpisim.Rank(1-env.Rank)
		timeIt(func() {
			for i := 0; i < n; i++ {
				if me == 0 {
					env.MPI.Send(buf, peer, 0)
					env.MPI.Recv(buf, peer, 1)
				} else {
					env.MPI.Recv(buf, peer, 0)
					env.MPI.Send(buf, peer, 1)
				}
			}
		})
	})
}

func allreduce(backend string, n int) float64 {
	const vecLen = 1024
	cfg := cluster.Config{
		Nodes: 8, RanksPerNode: 1, CoresPerRank: 1,
		Profile: fabric.ProfileOmniPath(), Seed: 1,
	}
	if backend == "tagaspi" {
		cfg.CoresPerRank, cfg.WithTasking, cfg.WithTAGASPI, cfg.TAGASPIPoll = 2, true, true, pollPeriod
	}
	return inRank0(cfg, n, func(env *cluster.Env, timeIt func(func())) {
		var c *collectives.Comm
		var err error
		switch backend {
		case "mpi":
			c = collectives.NewMPI(env.MPI, vecLen)
		case "gaspi":
			c, err = collectives.NewGASPI(env.GASPI, vecLen)
		case "tagaspi":
			c, err = collectives.NewTAGASPI(env.TAGASPI, env.RT, vecLen)
		}
		must(err)
		in, out := make([]float64, vecLen), make([]float64, vecLen)
		for i := range in {
			in[i] = float64(int(env.Rank)+1) * float64(i%7+1)
		}
		timeIt(func() {
			for i := 0; i < n; i++ {
				c.Allreduce(in, out, collectives.Sum)
			}
			c.Drain()
		})
	}) / 1e3
}

// probes lists every layer probe. Sizes keep each under half a second on
// the reference container.
var probes = []probe{
	{200000, func(n int) map[string]float64 {
		var ns float64
		clk := vclock.NewVirtual()
		onClock(clk, func() {
			ns = timed(n, func() {
				for i := 0; i < n; i++ {
					clk.Sleep(time.Microsecond)
				}
			})
		})
		return map[string]float64{"vclock.sleep_ns": ns}
	}},
	{100000, func(n int) map[string]float64 {
		var ns float64
		clk := vclock.NewVirtual()
		p1, p2 := clk.Parker(), clk.Parker()
		onClock(clk, func() {
			ns = timed(2*n, func() {
				for i := 0; i < n; i++ {
					p2.Unpark()
					p1.Park()
				}
			})
		}, func() {
			for i := 0; i < n; i++ {
				p2.Park()
				p1.Unpark()
			}
		})
		return map[string]float64{"vclock.pingpong_ns": ns}
	}},
	{65536, func(n int) map[string]float64 {
		// 1,024 sleepers with staggered periods, so almost every wake is
		// its own virtual instant: the cost of one advance step with a
		// thousand parked goroutines in the timer tables.
		const sleepers = 1024
		rounds := max(1, n/sleepers)
		clk := vclock.NewVirtual()
		fns := make([]func(), sleepers)
		for i := range fns {
			period := time.Microsecond + time.Duration(i)*time.Nanosecond
			fns[i] = func() {
				for r := 0; r < rounds; r++ {
					clk.Sleep(period)
				}
			}
		}
		ns := timed(sleepers*rounds, func() { onClock(clk, fns...) })
		return map[string]float64{"vclock.wake_1k_parkers_ns": ns}
	}},
	{200000, func(n int) map[string]float64 {
		var ns float64
		clk := vclock.NewVirtual()
		onClock(clk, func() {
			r := vsync.NewResource(clk)
			ns = timed(n, func() {
				for i := 0; i < n; i++ {
					r.Use(time.Microsecond)
				}
			})
		})
		return map[string]float64{"vsync.resource_use_ns": ns}
	}},
	{200000, func(n int) map[string]float64 {
		var ns float64
		clk := vclock.NewVirtual()
		q := vsync.NewQueue[int](clk)
		onClock(clk, func() {
			for i := 0; i < n; i++ {
				q.Push(i)
				if i%64 == 63 {
					clk.Sleep(time.Nanosecond) // let the consumer drain a batch
				}
			}
			q.Close()
		}, func() {
			ns = timed(n, func() {
				for {
					if _, ok := q.Pop(); !ok {
						return
					}
				}
			})
		})
		return map[string]float64{"vsync.queue_pushpop_ns": ns}
	}},
	{1000000, func(n int) map[string]float64 {
		src, dst := memory.NewSegment(0, 4096), memory.NewSegment(1, 4096)
		ns := timed(n, func() {
			for i := 0; i < n; i++ {
				must(memory.Copy(dst, 0, src, 0, 4096))
			}
		})
		return map[string]float64{"memory.copy_4k_ns": ns}
	}},
	{100000, func(n int) map[string]float64 {
		ns, allocs := fabricSend(fabric.ShapeFlat, 2, n)
		return map[string]float64{"fabric.flat_send_ns": ns, "fabric.send_allocs": allocs}
	}},
	{50000, func(n int) map[string]float64 {
		ns, _ := fabricSend(fabric.ShapeMesh2D, 16, n) // corner to corner: 6 hops
		return map[string]float64{"fabric.mesh_send_ns": ns}
	}},
	{20000, func(n int) map[string]float64 {
		return map[string]float64{"mpisim.pingpong_1k_ns": mpiPingPong(1<<10, n)}
	}},
	{5000, func(n int) map[string]float64 {
		// 64 KiB is above the eager threshold: RTS, CTS, data.
		return map[string]float64{"mpisim.pingpong_64k_ns": mpiPingPong(64<<10, n)}
	}},
	{2000, func(n int) map[string]float64 {
		// Rank 1 keeps 4,096 receives posted that the probe traffic never
		// matches, so every probe message walks the whole posted queue.
		const depth = 4096
		ns := inRank0(pair(false, false, false), n, func(env *cluster.Env, timeIt func(func())) {
			buf := make([]byte, 64)
			if env.Rank == 0 {
				env.MPI.Barrier()
				timeIt(func() {
					for i := 0; i < n; i++ {
						env.MPI.Send(buf, 1, 0)
						env.MPI.Recv(buf, 1, 0)
					}
				})
				for tag := 1; tag <= depth; tag++ {
					env.MPI.Send(buf, 1, tag)
				}
				return
			}
			deep := make([]*mpisim.Request, depth)
			for i := range deep {
				deep[i] = env.MPI.Irecv(make([]byte, 64), 0, i+1)
			}
			env.MPI.Barrier()
			for i := 0; i < n; i++ {
				env.MPI.Recv(buf, 0, 0)
				env.MPI.Send(buf, 0, 0)
			}
			env.MPI.Waitall(deep)
		})
		return map[string]float64{"mpisim.match_depth4k_ns": ns}
	}},
	{20000, func(n int) map[string]float64 {
		ns := inRank0(pair(false, false, false), n, func(env *cluster.Env, timeIt func(func())) {
			_, err := env.GASPI.SegmentCreate(0, 4096)
			must(err)
			env.MPI.Barrier()
			timeIt(func() {
				for i := 0; i < n; i++ {
					if env.Rank == 0 {
						must(env.GASPI.WriteNotify(0, 0, 1, 0, 0, 1024, 0, 1, 0, nil))
						for got := 0; got < 2; {
							got += len(env.GASPI.RequestWait(0, 4, gaspisim.Block))
						}
					} else {
						env.GASPI.NotifyWaitSome(0, 0, 1, gaspisim.Block)
						env.GASPI.NotifyReset(0, 0)
					}
				}
			})
		})
		return map[string]float64{"gaspisim.write_notify_ns": ns}
	}},
	{50000, func(n int) map[string]float64 {
		cfg := pair(true, false, false)
		cfg.Nodes = 1
		ns := inRank0(cfg, n, func(env *cluster.Env, timeIt func(func())) {
			timeIt(func() {
				for i := 0; i < n; i++ {
					env.RT.Submit(func(*tasking.Task) {})
				}
				env.RT.TaskWait()
			})
		})
		return map[string]float64{"tasking.submit_execute_ns": ns}
	}},
	{50000, func(n int) map[string]float64 {
		cfg := pair(true, false, false)
		cfg.Nodes = 1
		ns := inRank0(cfg, n, func(env *cluster.Env, timeIt func(func())) {
			base := new(int)
			timeIt(func() {
				for i := 0; i < n; i++ {
					env.RT.Submit(func(*tasking.Task) {}, tasking.WithDeps(tasking.InOutVal(base)))
				}
				env.RT.TaskWait()
			})
		})
		return map[string]float64{"tasking.dep_chain_ns": ns}
	}},
	{10000, func(n int) map[string]float64 {
		ns := inRank0(pair(true, true, false), n, func(env *cluster.Env, timeIt func(func())) {
			buf := make([]byte, 1024*n)
			peer := mpisim.Rank(1 - env.Rank)
			timeIt(func() {
				for i := 0; i < n; i++ {
					b := buf[i*1024:][:1024]
					env.RT.Submit(func(tk *tasking.Task) {
						if env.Rank == 0 {
							env.TAMPI.Iwait(tk, env.MPI.Isend(b, peer, i))
						} else {
							env.TAMPI.Iwait(tk, env.MPI.Irecv(b, peer, i))
						}
					})
					env.RT.Throttle(256)
				}
				env.RT.TaskWait()
			})
		})
		return map[string]float64{"tampi.iwait_task_ns": ns}
	}},
	{10000, func(n int) map[string]float64 {
		ns := inRank0(pair(true, false, true), n, func(env *cluster.Env, timeIt func(func())) {
			_, err := env.GASPI.SegmentCreate(0, 1024)
			must(err)
			env.MPI.Barrier()
			queues := env.GASPI.Queues()
			timeIt(func() {
				for i := 0; i < n; i++ {
					id := gaspisim.NotificationID(i)
					env.RT.Submit(func(tk *tasking.Task) {
						if env.Rank == 0 {
							must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, 1024, id, 1, i%queues))
						} else {
							env.TAGASPI.NotifyIwait(tk, 0, id, nil)
						}
					})
					env.RT.Throttle(256)
				}
				env.RT.TaskWait()
			})
		})
		return map[string]float64{"tagaspi.write_notify_task_ns": ns}
	}},
	{400, func(n int) map[string]float64 {
		return map[string]float64{
			"collectives.allreduce_us.mpi":     allreduce("mpi", n),
			"collectives.allreduce_us.gaspi":   allreduce("gaspi", n),
			"collectives.allreduce_us.tagaspi": allreduce("tagaspi", n),
		}
	}},
	{4 << 20, func(n int) map[string]float64 {
		p := heat.Params{Rows: max(2, n/1024/4), Cols: 1024, Timesteps: 4}
		ns := timed(int(p.Updates()), func() { heat.Serial(p) })
		return map[string]float64{"apps.heat_serial_ns_per_update": ns}
	}},
	{40, func(n int) map[string]float64 {
		p := miniamr.Params{
			Grid: [3]int{2, 2, 2}, Cells: 8, Vars: 10,
			Steps: n, RefineEvery: 5, MaxLevel: 1, Radius: 0.5,
		}
		ns := timed(int(miniamr.Work(p, p.Epochs(1))), func() { miniamr.Serial(p) })
		return map[string]float64{"apps.miniamr_serial_ns_per_update": ns}
	}},
}

// runProbes runs every probe once and merges their metrics.
func runProbes(smoke bool) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		n := p.n
		if smoke {
			n = max(10, n/10)
		}
		for name, v := range p.run(n) {
			out[name] = v
		}
	}
	return out
}
