package cluster

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
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
// a polling service that goes dormant, and wakes, allocates nothing on an
// uninstrumented job. Rank 0 drives the other ranks' runtimes. In the
// epilogue, each measured run closes one, sleeps while its idle service
// ends a pass and goes dormant, and shuts it down, which books the skipped
// passes and stops the service; the same run on a runtime left open is the
// baseline (TAMPI's service polls there until Shutdown, TAGASPI's goes
// dormant in the run), and the two must allocate the same (Shutdown's own
// parker). Inside a run, a TAGASPI service that went dormant is woken by a
// notification, polls and goes dormant again: rank 0 posts one to a rank
// whose service is dormant, and as the baseline to a rank whose runtime is
// shut down, and the two must allocate the same (the post's own).
func TestDormancyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	const (
		poll = 5 * time.Microsecond
		runs = 10
	)
	for _, lib := range []string{"tampi", "tagaspi"} {
		t.Run(lib, func(t *testing.T) {
			cfg := Config{
				Nodes: 1, RanksPerNode: 1 + 2*(runs+1), CoresPerRank: 2,
				Profile:     fabric.ProfileOmniPath(),
				WithTasking: true, WithTAMPI: lib == "tampi", WithTAGASPI: lib == "tagaspi",
				TAMPIPoll: poll, TAGASPIPoll: poll,
			}
			envs := make([]*Env, cfg.RanksPerNode)
			Run(cfg, func(env *Env) {
				envs[env.Rank] = env
				if env.Rank != 0 {
					env.Clk.Sleep(time.Second) // far past the measurement
					return
				}
				env.Clk.Sleep(10 * poll) // every rank has published its env
				next := 1
				cycle := func(close bool) func() {
					return func() {
						rt := envs[next].RT
						next++
						if close {
							rt.Close()
						}
						env.Clk.Sleep(3 * poll)
						rt.Shutdown()
					}
				}
				open := testing.AllocsPerRun(runs, cycle(false))
				dormant := testing.AllocsPerRun(runs, cycle(true))
				if dormant != open {
					t.Errorf("%s: a dormant service's epilogue allocates %.2f objects, a polling one's %.2f",
						lib, dormant, open)
				}
				t.Logf("%s: %.2f allocs per Shutdown, dormant or not", lib, dormant)
			})
		})
	}
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
