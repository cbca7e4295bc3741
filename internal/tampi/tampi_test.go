package tampi_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tasking"
)

func hybridConfig(ranks int) cluster.Config {
	return cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAMPI: true,
		TAMPIPoll: 5 * time.Microsecond,
	}
}

// The Figure-1 flow: a communication task binds a receive via Iwait and
// declares the buffer as an output dependency; the successor task that
// consumes the buffer must only run once the data has arrived.
func TestIwaitReleasesDepsAfterArrival(t *testing.T) {
	var got atomic.Int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		switch env.Rank {
		case 0:
			env.RT.Submit(func(tk *tasking.Task) {
				tk.Compute(20 * time.Microsecond) // delay the send
				req := env.MPI.Isend([]byte("payload"), 1, 0)
				env.TAMPI.Iwait(tk, req)
			}, tasking.WithLabel("send"))
		case 1:
			buf := make([]byte, 7)
			env.RT.Submit(func(tk *tasking.Task) {
				req := env.MPI.Irecv(buf, 0, 0)
				env.TAMPI.Iwait(tk, req)
				// TAMPI semantics: we may NOT touch buf here; the recv may
				// not have completed. Only successors may.
			}, tasking.WithDeps(tasking.Out(&buf[0], 0, len(buf))), tasking.WithLabel("recv"))
			env.RT.Submit(func(tk *tasking.Task) {
				if string(buf) == "payload" {
					got.Store(1)
				}
			}, tasking.WithDeps(tasking.In(&buf[0], 0, len(buf))), tasking.WithLabel("consume"))
		}
	})
	if got.Load() != 1 {
		t.Fatal("consumer ran without the received payload")
	}
}

// One task bound to many requests through repeated Iwait calls releases
// its dependencies only once every request has completed.
func TestIwaitallBindsMany(t *testing.T) {
	const n = 16
	var sum atomic.Int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		switch env.Rank {
		case 0:
			env.RT.Submit(func(tk *tasking.Task) {
				for i := 0; i < n; i++ {
					req := env.MPI.Isend([]byte{byte(i)}, 1, i)
					env.TAMPI.Iwait(tk, req)
				}
			})
		case 1:
			bufs := make([][]byte, n)
			flag := new(int)
			env.RT.Submit(func(tk *tasking.Task) {
				for i := 0; i < n; i++ {
					bufs[i] = make([]byte, 1)
					env.TAMPI.Iwait(tk, env.MPI.Irecv(bufs[i], 0, i))
				}
			}, tasking.WithDeps(tasking.OutVal(flag)))
			env.RT.Submit(func(tk *tasking.Task) {
				for i := 0; i < n; i++ {
					sum.Add(int64(bufs[i][0]))
				}
			}, tasking.WithDeps(tasking.InVal(flag)))
		}
	})
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestPollIntervalAffectsLatency(t *testing.T) {
	// With a longer polling period, the receiver task's dependencies are
	// released later: the paper's motivation for per-service periods.
	latency := func(poll time.Duration) time.Duration {
		var release time.Duration
		cfg := cluster.Config{
			Nodes: 2, RanksPerNode: 1, CoresPerRank: 2,
			Profile:     fabric.ProfileOmniPath(),
			WithTasking: true, WithTAMPI: true,
			TAMPIPoll: poll,
		}
		cluster.Run(cfg, func(env *cluster.Env) {
			switch env.Rank {
			case 0:
				env.RT.Submit(func(tk *tasking.Task) {
					req := env.MPI.Isend(make([]byte, 64), 1, 0)
					env.TAMPI.Iwait(tk, req)
				})
			case 1:
				buf := make([]byte, 64)
				env.RT.Submit(func(tk *tasking.Task) {
					req := env.MPI.Irecv(buf, 0, 0)
					env.TAMPI.Iwait(tk, req)
				}, tasking.WithDeps(tasking.Out(&buf[0], 0, 64)))
				env.RT.Submit(func(tk *tasking.Task) {
					release = env.Clk.Now()
				}, tasking.WithDeps(tasking.In(&buf[0], 0, 64)))
			}
		})
		return release
	}
	fast := latency(20 * time.Microsecond)
	slow := latency(400 * time.Microsecond)
	if slow <= fast {
		t.Fatalf("coarser polling (%v) should release later than finer (%v)", slow, fast)
	}
}

// After TaskWait nothing stays bound: the polling passes that follow find
// an empty in-flight set, so none of them books a Testsome on the library
// lock, and all of them are idle. The baseline is read a nanosecond after
// TaskWait returns: at its own instant, the pass or the core release that
// woke it may still be counting a pass on another goroutine.
func TestInFlightDrainsToZero(t *testing.T) {
	var lockUses int64
	var passes, idle float64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		switch env.Rank {
		case 0:
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAMPI.Iwait(tk, env.MPI.Isend([]byte("z"), 1, 0))
			})
		case 1:
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAMPI.Iwait(tk, env.MPI.Irecv(make([]byte, 1), 0, 0))
			})
		}
		env.RT.TaskWait()
		if env.Rank == 1 {
			env.Clk.Sleep(time.Nanosecond)
			uses0 := env.MPI.LockStats().Uses
			passes0, idle0 := sample(env, "tampi_passes"), sample(env, "tampi_idle_passes")
			env.Clk.Sleep(10 * 5 * time.Microsecond) // ten polling periods
			lockUses = env.MPI.LockStats().Uses - uses0
			passes = sample(env, "tampi_passes") - passes0
			idle = sample(env, "tampi_idle_passes") - idle0
		}
	})
	if passes < 5 {
		t.Fatalf("only %g polling passes in ten periods after TaskWait", passes)
	}
	if lockUses != 0 || idle != passes {
		t.Fatalf("after TaskWait: %d library-lock uses and %g of %g passes idle, want 0 and all: a request is still in flight",
			lockUses, idle, passes)
	}
}

// sample returns the value of the named sample in the rank's TAMPI
// snapshot, or 0 if absent.
func sample(env *cluster.Env, name string) float64 {
	for _, smp := range env.TAMPI.Snapshot().Samples {
		if smp.Name == name {
			return smp.Value
		}
	}
	return 0
}
