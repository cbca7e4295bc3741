package tagaspi_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tasking"
)

// The polling task skips its notification scan while no wait was staged and
// no notification was set on the rank since the last scan. These tests pin
// that the skipped scans are exactly the ones that could not find anything:
// under the ideal profile a pass costs no modelled time, so the passes of a
// 5µs service sit on the 5µs grid and every retirement below has one
// possible instant.

const gatePoll = 5 * time.Microsecond

// gateJob runs a job in which rank 1 awaits notification 7 and a successor
// task records when and with what value the wait was retired. Ranks past 1
// only create their segment.
func gateJob(t *testing.T, cfg cluster.Config, main0, main1 func(env *cluster.Env)) (at time.Duration, val int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		gateRun(cfg, main0, main1, &at, &val)
	}()
	select {
	case <-done:
	//lint:ignore detlint host-side hang watchdog: a gate that skips a scan it needed never retires the wait
	case <-time.After(20 * time.Second):
		t.Fatal("job hung: the wait was never retired")
	}
	return at, val
}

func gateRun(cfg cluster.Config, main0, main1 func(env *cluster.Env), at *time.Duration, val *int64) {
	cluster.Run(cfg, func(env *cluster.Env) {
		mustSeg(env, 0, 64)
		switch {
		case env.Rank == 0:
			main0(env)
			return
		case env.Rank > 1:
			return
		}
		var notified int64
		env.RT.Submit(func(tk *tasking.Task) {
			env.TAGASPI.NotifyIwait(tk, 0, 7, &notified)
		}, tasking.WithDeps(tasking.OutVal(&notified)))
		env.RT.Submit(func(tk *tasking.Task) {
			*at, *val = env.Clk.Now(), notified
		}, tasking.WithDeps(tasking.InVal(&notified)))
		main1(env)
	})
}

// notifyAt makes rank 0 set notification 7 of rank 1 to val at modelled
// time when (zero latency under the ideal profile).
func notifyAt(env *cluster.Env, when time.Duration, val int64) {
	env.Clk.Sleep(when - env.Clk.Now())
	env.RT.Submit(func(tk *tasking.Task) {
		must(env.TAGASPI.Notify(tk, 1, 0, 7, val, 0))
	})
}

// A notification that lands between two passes is retired by the very next
// pass; the passes before it, which scanned nothing, were idle.
func TestGateArrivalBetweenPassesRetiredByNextPass(t *testing.T) {
	var idle float64
	at, val := gateJob(t, hybridConfig(2),
		func(env *cluster.Env) { notifyAt(env, 12*time.Microsecond, 42) },
		func(env *cluster.Env) {
			env.Clk.Sleep(11 * time.Microsecond)
			idle = sample(env.TAGASPI, "tagaspi_idle_passes")
			if n := sample(env.TAGASPI, "tagaspi_pending_notifications"); n != 1 {
				t.Errorf("%g waits pending before the notification, want 1", n)
			}
		})
	if at != 15*time.Microsecond || val != 42 {
		t.Errorf("wait retired at %v with value %d, want 15µs (the first pass after 12µs) and 42", at, val)
	}
	if idle < 3 {
		t.Errorf("%g idle passes in the first 11µs, want the passes at 0, 5 and 10µs", idle)
	}
}

// An application NotifyReset that consumes the slot between two passes
// leaves the waiter pending: the next pass scans (the count moved), finds
// nothing, and the wait is retired by the next notification.
func TestGateApplicationResetLeavesWaiterPending(t *testing.T) {
	at, val := gateJob(t, hybridConfig(2),
		func(env *cluster.Env) {
			notifyAt(env, 12*time.Microsecond, 44)
			notifyAt(env, 22*time.Microsecond, 45)
		},
		func(env *cluster.Env) {
			env.Clk.Sleep(13 * time.Microsecond)
			if v, ok := env.GASPI.NotifyReset(0, 7); !ok || v != 44 {
				t.Errorf("application NotifyReset at 13µs = (%d, %v), want (44, true)", v, ok)
			}
			env.Clk.Sleep(5 * time.Microsecond)
			if n := sample(env.TAGASPI, "tagaspi_pending_notifications"); n != 1 {
				t.Errorf("%g waits pending at 18µs, want 1: the slot was consumed by the application", n)
			}
		})
	if at != 25*time.Microsecond || val != 45 {
		t.Errorf("wait retired at %v with value %d, want 25µs and 45", at, val)
	}
}

// While failed operations await resubmission every pass takes the blocking
// retry path; it still ends in the full notification check. Two ranks per
// node keep rank 0's notification to rank 1 on one node, where nothing
// faults, while everything rank 1 posts to rank 2 on the other node is
// lost.
func TestGateRetryPassStillChecksNotifications(t *testing.T) {
	cfg := hybridConfig(2)
	cfg.RanksPerNode = 2
	cfg.Seed = 1
	cfg.Faults = fabric.FaultPlan{GASPIDrop: 1}
	at, val := gateJob(t, cfg,
		func(env *cluster.Env) { notifyAt(env, 12*time.Microsecond, 46) },
		func(env *cluster.Env) {
			// The retry queue is non-empty from the first failure until the
			// operation is given up. A resubmission by 26µs means the first
			// attempt failed by 6µs (the default backoff is 20µs), so the
			// pass at 15µs took the retry path.
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 2, 0, 1, 1, 0))
			})
			env.Clk.Sleep(26 * time.Microsecond)
			if r := sample(env.TAGASPI, "tagaspi_retries"); r == 0 {
				t.Error("no resubmission by 26µs: the passes did not take the retry path")
			}
			env.RT.TaskWait()
			if g := sample(env.TAGASPI, "tagaspi_gaveup"); g != 1 {
				t.Errorf("tagaspi_gaveup = %g, want 1", g)
			}
		})
	if at != 15*time.Microsecond || val != 46 {
		t.Errorf("wait retired at %v with value %d, want 15µs and 46", at, val)
	}
}
