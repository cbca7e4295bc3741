package tagaspi_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

// postRun is what one write+notify job observed: the instants of rank 0's
// local completions and queue errors, of rank 1's notification arrivals,
// and the whole trace.
type postRun struct {
	local, errs, notified []time.Duration
	events                []obs.Event
	faults                int64
}

// writeNotifyJob runs rank 0's writers, one task per chunk, each charging
// some compute and then write+notifying its chunk to rank 1 on one of two
// queues, so that posts queue for the post resource; rank 1 waits every
// notification. The writers are goroutine tasks (Compute, then the post)
// or, with steps set, step tasks (Then, then the post).
func writeNotifyJob(steps bool, drop float64) postRun {
	const ops, chunk = 8, 256
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 4,
		Profile: fabric.ProfileOmniPath(), WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: 2 * time.Microsecond,
		Recorder:    &obs.Collector{Tracer: obs.NewTracer(2)},
		Seed:        7,
		Faults:      fabric.FaultPlan{GASPIDrop: drop},
	}
	res := cluster.Run(cfg, func(env *cluster.Env) {
		seg := mustSeg(env, 0, ops*chunk)
		tg := env.TAGASPI
		if env.Rank == 1 {
			env.RT.Submit(func(tk *tasking.Task) {
				for i := 0; i < ops; i++ {
					tg.NotifyIwait(tk, 0, tagaspi.NotificationID(i), nil)
				}
			}, tasking.WithDeps(tasking.Out(seg, 0, ops*chunk)))
			return
		}
		for i := 0; i < ops; i++ {
			cost := time.Duration(i%3) * 100 * time.Nanosecond
			post := func(tk *tasking.Task) {
				must(tg.WriteNotify(tk, 0, i*chunk, 1, 0, i*chunk, chunk,
					tagaspi.NotificationID(i), int64(i+1), i%2))
			}
			deps := tasking.WithDeps(tasking.In(seg, i*chunk, (i+1)*chunk))
			if !steps {
				env.RT.Submit(func(tk *tasking.Task) {
					tk.Compute(cost)
					post(tk)
				}, deps)
				continue
			}
			env.RT.Submit(func(tk *tasking.Task) {
				tk.Then(cost, func() { post(tk) })
			}, deps, tasking.NonBlocking())
		}
	})
	out := postRun{events: cfg.Recorder.Tracer.Events(), faults: res.Fabric.Faults}
	for _, e := range out.events {
		switch {
		case e.Name == "gaspi:complete" && e.Rank == 0:
			out.local = append(out.local, e.Ts)
		case e.Name == "gaspi:queue_error" && e.Rank == 0:
			out.errs = append(out.errs, e.Ts)
		case e.Name == "notify:fulfill" && e.Rank == 1:
			out.notified = append(out.notified, e.Ts)
		}
	}
	return out
}

// TestStepTaskPostMatchesGoroutineTaskPost: a write+notify from a step task
// (Book, then Then for the post resource's wait, then the send) completes
// locally and notifies remotely at the same instants as one from a
// goroutine task (Submit, which sleeps through that wait), with the same
// trace. Under GASPI drops queues enter the error state, so posts fail
// both at the fabric and at Book on an errored queue, and the retry policy
// resubmits them; the instants must still agree.
func TestStepTaskPostMatchesGoroutineTaskPost(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop float64
	}{{"healthy", 0}, {"errored queue", 0.5}} {
		t.Run(tc.name, func(t *testing.T) {
			want := writeNotifyJob(false, tc.drop)
			got := writeNotifyJob(true, tc.drop)
			if len(want.local) == 0 || len(want.notified) == 0 {
				t.Fatalf("the job recorded %d local completions and %d notifications",
					len(want.local), len(want.notified))
			}
			if tc.drop > 0 && int64(len(want.errs)) <= want.faults {
				t.Fatalf("%d queue errors for %d fabric faults: no post found its queue errored",
					len(want.errs), want.faults)
			}
			if !slices.Equal(got.local, want.local) {
				t.Errorf("local completions: step tasks %v, goroutine tasks %v", got.local, want.local)
			}
			if !slices.Equal(got.errs, want.errs) {
				t.Errorf("queue errors: step tasks %v, goroutine tasks %v", got.errs, want.errs)
			}
			if !slices.Equal(got.notified, want.notified) {
				t.Errorf("notifications: step tasks %v, goroutine tasks %v", got.notified, want.notified)
			}
			if !slices.Equal(got.events, want.events) {
				t.Errorf("traces differ: %d step-task events, %d goroutine-task events",
					len(got.events), len(want.events))
			}
		})
	}
}
