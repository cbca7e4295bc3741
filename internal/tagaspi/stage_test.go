package tagaspi

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory/pooltest"
	"repro/internal/tasking"
	"repro/internal/vclock"
)

// TestReleaseMark: a released pendingOp or notifWait refuses a second release.
func TestReleaseMark(t *testing.T) {
	po, w := newPendingOp(), newNotifWait()
	putPendingOp(po)
	putNotifWait(w)
	pooltest.Panics(t, map[string]func(){
		"tagaspi: putPendingOp of a released pendingOp": func() { putPendingOp(po) },
		"tagaspi: putNotifWait of a released notifWait": func() { putNotifWait(w) },
	})
	pooltest.Size[pendingOp](t, 152)
	pooltest.Size[notifWait](t, 32)
}

// A wait staged after its notification arrived — NotifyIwait's arrival check
// and its staging push are not one step — finds the rank's notification
// count unmoved since the last scan; the pass that drains the wait must scan
// all the same. One rank notifies itself at 12µs, the 15µs pass scans an
// empty list, and a task stages the wait at 17µs without looking first.
func TestGateWaitStagedAfterArrivalRetiredByNextPass(t *testing.T) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(1, 1), fabric.ProfileIdeal())
	p := gaspisim.NewWorld(fab, 1, 1).Proc(0)
	rt := tasking.New(clk, tasking.Config{Cores: 4})
	var at time.Duration
	var notified int64
	var wg sync.WaitGroup
	wg.Add(1)
	start := clk.Launch(1)
	l := New(p, rt, 5*time.Microsecond)
	start(func(int) {
		defer wg.Done()
		if _, err := p.SegmentCreate(0, 64); err != nil {
			t.Error(err)
			return
		}
		rt.Submit(func(tk *tasking.Task) {
			clk.Sleep(12 * time.Microsecond)
			if err := l.Notify(tk, 0, 0, 7, 43, 0); err != nil {
				t.Error(err)
			}
		})
		rt.Submit(func(tk *tasking.Task) {
			clk.Sleep(17 * time.Microsecond)
			l.stage(tk, 0, 7, &notified)
		}, tasking.WithDeps(tasking.OutVal(&notified)))
		rt.Submit(func(tk *tasking.Task) {
			at = clk.Now()
		}, tasking.WithDeps(tasking.InVal(&notified)))
		clk.Sleep(30 * time.Microsecond)
		if l.outstanding.Load() == 0 {
			rt.TaskWait()
		} else {
			t.Error("the wait staged at 17µs is still pending at 30µs: the pass that drained it did not scan")
		}
		rt.Shutdown()
	})
	wg.Wait()
	fab.Close()
	if at != 20*time.Microsecond || notified != 43 {
		t.Errorf("wait staged at 17µs retired at %v with value %d, want 20µs (the next pass) and 43", at, notified)
	}
}
