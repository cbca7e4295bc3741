package cluster

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/mpisim"
	"repro/internal/tasking"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; allocation-count gates skip under -race.
var raceEnabled bool

// TestIdlePollPassZeroAlloc is an allocation-regression gate of
// scripts/ci.sh: a polling pass that retires nothing must allocate
// nothing. A 256-node TAGASPI job makes two million such passes; when each
// armed event cost a timer and a closure, the garbage — never collected
// under the GC goal the application grid sets — tripled the job's peak RSS.
// Every rank here has 64 operations pending that cannot complete while the
// passes are counted, so a pass does its full work: TAMPI books and settles
// a Testsome over the in-flight set, TAGASPI tests every queue's completion
// list and finds the rank's notification count where its last scan of the
// 64 waits left it.
func TestIdlePollPassZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	const (
		poll    = 5 * time.Microsecond
		pending = 64
	)
	for _, lib := range []string{"tampi", "tagaspi"} {
		t.Run(lib, func(t *testing.T) {
			cfg := Config{
				Nodes: 2, RanksPerNode: 1, CoresPerRank: 2,
				Profile:     fabric.ProfileOmniPath(),
				WithTasking: true, WithTAMPI: lib == "tampi", WithTAGASPI: lib == "tagaspi",
				TAMPIPoll: poll, TAGASPIPoll: poll,
			}
			Run(cfg, func(env *Env) {
				if _, err := env.GASPI.SegmentCreate(0, 64); err != nil {
					t.Error(err)
					return
				}
				env.MPI.Barrier()
				peer := 1 - env.Rank
				buf := make([]byte, 8*pending)
				// Bind operations the peer completes only after the
				// measurement, so the poller has something to check.
				env.RT.Submit(func(tk *tasking.Task) {
					for i := 0; i < pending; i++ {
						if env.TAMPI != nil {
							env.TAMPI.Iwait(tk, env.MPI.Irecv(buf[8*i:8*i+8], peer, i))
						} else {
							env.TAGASPI.NotifyIwait(tk, 0, gaspisim.NotificationID(i), nil)
						}
					}
				})
				passes := func() float64 {
					snap, name := env.TAGASPI.Snapshot, "tagaspi_passes"
					if env.TAMPI != nil {
						snap, name = env.TAMPI.Snapshot, "tampi_passes"
					}
					for _, smp := range snap().Samples {
						if smp.Name == name {
							return smp.Value
						}
					}
					return 0
				}
				if env.Rank == 0 {
					env.Clk.Sleep(100 * poll) // warm the scratch buffers and pools
					const runs = 200
					before := passes()
					// A Sleep of two polling periods spans at least one
					// whole pass of each rank's service (a period plus the
					// pass's own modelled cost), run by this goroutine as
					// it advances the clock.
					avg := testing.AllocsPerRun(runs, func() { env.Clk.Sleep(2 * poll) })
					if n := passes() - before; n < runs {
						t.Errorf("only %g passes ran during %d measured sleeps", n, runs)
					}
					if avg != 0 {
						t.Errorf("%s: an idle polling pass allocates %.2f objects, want 0", lib, avg)
					}
					t.Logf("%s: %.2f allocs per idle pass", lib, avg)
				} else {
					env.Clk.Sleep(time.Second) // far past the measurement
				}
				if env.TAMPI != nil {
					for i := 0; i < pending; i++ {
						env.MPI.Send(buf[8*i:8*i+8], peer, i)
					}
					return
				}
				env.RT.Submit(func(tk *tasking.Task) {
					for i := 0; i < pending; i++ {
						if err := env.TAGASPI.Notify(tk, peer, 0, gaspisim.NotificationID(i), 1, 0); err != nil {
							t.Error(err)
						}
					}
				})
			})
		})
	}
}

// TestDormancyZeroAlloc is an allocation-regression gate of scripts/ci.sh:
// a polling service that goes dormant inside a run, and wakes, allocates
// nothing on an uninstrumented job. Rank 0 wakes one other rank's dormant
// service per measured run, which polls until its library has nothing to
// poll and goes dormant again. TAMPI's is woken by an Iwait: rank 0 binds a
// complete receive to a task of that rank whose completion the rank holds
// back, and the whole run — the Iwait, the wake, the Testsome pass that
// retires the event and the sleep that follows — must allocate nothing.
// TAGASPI's is woken by a notification: rank 0 posts one to a rank whose
// service is dormant, and as the baseline to a rank whose runtime is shut
// down, and the two must allocate the same (the post's own). In the
// epilogue, Shutdown wakes a dormant TAGASPI service, which books the
// skipped passes and stops; a service polling on a dedicated core is the
// baseline, and the two must allocate the same (Shutdown's own).
func TestDormancyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	const (
		poll = 5 * time.Microsecond
		runs = 10
	)
	t.Run("tampi", func(t *testing.T) {
		cfg := Config{
			Nodes: 1, RanksPerNode: 1 + runs + 1, CoresPerRank: 2,
			Profile:     fabric.ProfileOmniPath(),
			WithTasking: true, WithTAMPI: true,
			TAMPIPoll: poll,
		}
		type target struct {
			env *Env
			tk  *tasking.Task
			req *mpisim.Request
		}
		targets := make([]target, cfg.RanksPerNode)
		Run(cfg, func(env *Env) {
			buf := make([]byte, 8)
			if env.Rank == 0 {
				for r := 1; r < cfg.RanksPerNode; r++ {
					env.MPI.Send(buf, fabric.Rank(r), 1)
					env.MPI.Send(buf, fabric.Rank(r), 2)
				}
				env.Clk.Sleep(20 * poll) // every target is set up and dormant
				skipped := make([]int64, len(targets))
				for r := 1; r < len(targets); r++ {
					skipped[r] = targets[r].env.RT.Stats().SkippedPasses
				}
				next := 1
				woken := testing.AllocsPerRun(runs, func() {
					tg := targets[next]
					next++
					tg.env.TAMPI.Iwait(tg.tk, tg.req)
					env.Clk.Sleep(3 * poll)
				})
				if woken != 0 {
					t.Errorf("going dormant and waking on an Iwait allocates %.2f objects, want 0", woken)
				}
				t.Logf("%.2f allocs per Iwait that wakes a dormant service", woken)
				for r := 1; r < len(targets); r++ {
					if targets[r].env.RT.Stats().SkippedPasses == skipped[r] {
						t.Errorf("rank %d: the Iwait woke no dormant service", r)
					}
				}
				return
			}
			// One Iwait of the rank's own grows the library's lists and
			// the pass's scratch buffers to what the measured run needs.
			env.RT.Submit(func(tk *tasking.Task) { env.TAMPI.Iwait(tk, env.MPI.Irecv(buf, 0, 1)) })
			env.RT.TaskWait()
			var held *tasking.EventCounter
			tg := target{env: env, req: env.MPI.Irecv(buf, 0, 2)}
			env.RT.Submit(func(*tasking.Task) {}, tasking.WithOnReady(func(tk *tasking.Task) {
				tg.tk, held = tk, tk.Events()
				held.Increase(1)
			}))
			env.Clk.Sleep(5 * poll) // the receive completes, the task's body ends
			targets[env.Rank] = tg
			env.Clk.Sleep(time.Second) // far past the measurement
			held.Decrease(1)
		})
	})
	t.Run("tagaspi", func(t *testing.T) {
		// The epilogue: each measured run sleeps while one rank's idle
		// service ends passes, and shuts that rank's runtime down.
		epilogue := func(interval time.Duration) (allocs float64, skipped int64) {
			cfg := Config{
				Nodes: 1, RanksPerNode: 1 + runs + 1, CoresPerRank: 2,
				Profile:     fabric.ProfileOmniPath(),
				WithTasking: true, WithTAGASPI: true,
				TAGASPIPoll: interval,
			}
			envs := make([]*Env, cfg.RanksPerNode)
			Run(cfg, func(env *Env) {
				envs[env.Rank] = env
				if env.Rank != 0 {
					env.Clk.Sleep(time.Millisecond) // past the measurement
					return
				}
				env.Clk.Sleep(10 * time.Microsecond) // every rank has published its env
				next := 1
				allocs = testing.AllocsPerRun(runs, func() {
					rt := envs[next].RT
					next++
					env.Clk.Sleep(15 * time.Microsecond)
					rt.Shutdown()
				})
				for _, e := range envs[1:] {
					skipped += e.RT.Stats().SkippedPasses
				}
			})
			return allocs, skipped
		}
		// A dedicated-core service polls back to back and never goes
		// dormant: the baseline for one that sleeps between its passes.
		polling, neverSlept := epilogue(-1)
		dormant, slept := epilogue(poll)
		if neverSlept != 0 || slept == 0 {
			t.Fatalf("skipped passes: %d with a dedicated core, %d with a %v period; want 0 and more",
				neverSlept, slept, poll)
		}
		if dormant != polling {
			t.Errorf("a dormant service's epilogue allocates %.2f objects, a polling one's %.2f", dormant, polling)
		}
		t.Logf("%.2f allocs per Shutdown, dormant or not", dormant)
	})
	t.Run("tagaspi-in-run", func(t *testing.T) {
		cfg := Config{
			Nodes: 1, RanksPerNode: 1 + 2*(runs+1), CoresPerRank: 2,
			Profile:     fabric.ProfileOmniPath(),
			WithTasking: true, WithTAGASPI: true,
			TAGASPIPoll: poll,
		}
		envs := make([]*Env, cfg.RanksPerNode)
		Run(cfg, func(env *Env) {
			envs[env.Rank] = env
			if _, err := env.GASPI.SegmentCreate(0, 64); err != nil {
				t.Error(err)
				return
			}
			env.MPI.Barrier()
			if env.Rank > runs+1 {
				env.RT.Shutdown() // the baseline's targets: no service left to wake
			}
			if env.Rank != 0 {
				env.Clk.Sleep(time.Second) // far past the measurement
				return
			}
			// Rank 0 posts without a task, so its own service, which would
			// take the completions for task events, must be gone.
			env.RT.Shutdown()
			env.Clk.Sleep(10 * poll) // every service is dormant or gone
			comp := make([]gaspisim.CompletedRequest, 0, 4)
			next := 1
			cycle := func() {
				if err := env.GASPI.Notify(gaspisim.Rank(next), 0, 1, 1, 0, nil); err != nil {
					t.Error(err)
				}
				next++
				env.Clk.Sleep(3 * poll)
				comp = env.GASPI.RequestTest(0, cap(comp), comp[:0])
			}
			woken := testing.AllocsPerRun(runs, cycle)
			gone := testing.AllocsPerRun(runs, cycle)
			if woken != gone {
				t.Errorf("a notification allocates %.2f objects on a rank whose service it wakes, %.2f on one with none",
					woken, gone)
			}
			t.Logf("%.2f allocs per notification, waking a dormant service or not", woken)
			for _, e := range envs[1 : runs+2] {
				if e.RT.Stats().SkippedPasses == 0 {
					t.Errorf("rank %d: the notification woke no dormant service", e.Rank)
				}
			}
		})
	})
}
