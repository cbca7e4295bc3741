package tagaspi_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

// Under a transient GASPI drop rate, TAGASPI's retry policy must repair
// the errored queues and resubmit until every write+notify lands: the
// receiver sees all notifications and intact data, and the retry counter
// is nonzero.
func TestRetryRecoversFromTransientDrops(t *testing.T) {
	const (
		ops   = 16
		chunk = 32
	)
	cfg := hybridConfig(2)
	cfg.Seed = 1
	cfg.Faults = fabric.FaultPlan{GASPIDrop: 0.5}
	libs := make([]*tagaspi.Library, 2)
	bad := make(chan string, ops+1)
	res := cluster.Run(cfg, func(env *cluster.Env) {
		libs[env.Rank] = env.TAGASPI
		seg := mustSeg(env, 0, ops*chunk)
		switch env.Rank {
		case 0:
			for i := range seg.Bytes() {
				seg.Bytes()[i] = byte(i % 251)
			}
			for i := 0; i < ops; i++ {
				i := i
				env.RT.Submit(func(tk *tasking.Task) {
					must(env.TAGASPI.WriteNotify(tk, 0, i*chunk, 1, 0, i*chunk, chunk,
						tagaspi.NotificationID(i), int64(i+1), i%env.GASPI.Queues()))
				}, tasking.WithDeps(tasking.In(seg, i*chunk, (i+1)*chunk)))
			}
		case 1:
			vals := make([]int64, ops)
			env.RT.Submit(func(tk *tasking.Task) {
				for i := range vals {
					env.TAGASPI.NotifyIwait(tk, 0, tagaspi.NotificationID(i), &vals[i])
				}
			}, tasking.WithDeps(tasking.Out(seg, 0, ops*chunk)))
			env.RT.Submit(func(tk *tasking.Task) {
				for i := 0; i < ops; i++ {
					if vals[i] != int64(i+1) {
						bad <- "notification value mismatch"
						return
					}
				}
				for i, b := range seg.Bytes() {
					if b != byte(i%251) {
						bad <- "payload corrupted"
						return
					}
				}
			}, tasking.WithDeps(tasking.In(seg, 0, ops*chunk)))
		}
	})
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	if got := sample(libs[0], "tagaspi_retries"); got == 0 {
		t.Error("Drop=0.5 over 16 operations triggered no retries")
	}
	if got := sample(libs[0], "tagaspi_gaveup"); got != 0 {
		t.Errorf("tagaspi_gaveup = %g, want 0 (transient faults must not exhaust %d attempts)",
			got, tagaspi.DefaultMaxAttempts)
	}
	if res.Fabric.Faults == 0 {
		t.Error("fabric recorded no injected faults")
	}
	// The per-rank retry counters surface in the job snapshots.
	found := false
	for _, s := range res.Snapshots {
		if s.Component != "tagaspi" || s.Rank != 0 {
			continue
		}
		for _, smp := range s.Samples {
			if smp.Name == "tagaspi_retries" && smp.Value > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no tagaspi snapshot with tagaspi_retries > 0 in Result.Snapshots")
	}
}

// When the fault is permanent, the retry budget must run out and the task's
// events must still be released — the job degrades (the notification never
// arrives at the peer) instead of deadlocking in TaskWait. The default
// policy submits the operation DefaultMaxAttempts times, backing off
// DefaultRetryBackoff << (attempt-1) between attempts.
func TestRetryGivesUpGracefully(t *testing.T) {
	cfg := hybridConfig(2)
	cfg.Seed = 1
	cfg.Faults = fabric.FaultPlan{GASPIDrop: 1}
	libs := make([]*tagaspi.Library, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cluster.Run(cfg, func(env *cluster.Env) {
			libs[env.Rank] = env.TAGASPI
			mustSeg(env, 0, 64)
			if env.Rank != 0 {
				return // the peer must not wait for a notification that never lands
			}
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 1, 0, 0, 1, 0))
			})
		})
	}()
	select {
	case <-done:
	//lint:ignore detlint host-side deadlock watchdog: this timer guards the test harness, not modelled behaviour
	case <-time.After(30 * time.Second):
		t.Fatal("job deadlocked: give-up did not release the task's events")
	}
	if got := sample(libs[0], "tagaspi_gaveup"); got != 1 {
		t.Errorf("tagaspi_gaveup = %g, want 1", got)
	}
	if got, want := sample(libs[0], "tagaspi_retries"), float64(tagaspi.DefaultMaxAttempts-1); got != want {
		t.Errorf("tagaspi_retries = %g, want %g (attempts 2 to %d of the default budget)",
			got, want, tagaspi.DefaultMaxAttempts)
	}
}
