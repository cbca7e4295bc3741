package gaspisim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// withFaultyWorld runs fn concurrently as every rank, launched as one group,
// with a fault plan installed on the fabric (when enabled) and an optional
// recorder on the world, and waits for all.
func withFaultyWorld(ranks, queues int, plan fabric.FaultPlan, rec *obs.Collector, fn func(p *Proc)) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(ranks, 1), testProfile())
	if plan.Enabled() {
		fab.SetFaultPlan(plan, 99)
	}
	w := NewWorld(fab, queues, 1)
	if rec != nil {
		fab.SetRecorder(rec)
		w.SetRecorder(rec)
	}
	var wg sync.WaitGroup
	wg.Add(w.Size())
	clk.Launch(w.Size())(func(r int) {
		defer wg.Done()
		fn(w.Proc(Rank(r)))
	})
	wg.Wait()
}

// A failed operation must surface as OK=false completions through a
// blocking RequestWait (no hang), move the queue into the error state,
// fast-fail subsequent posts, and accept posts again after QueueRepair.
func TestFailedOperationEntersQueueErrorState(t *testing.T) {
	plan := fabric.FaultPlan{GASPIDrop: 1}
	reg := obs.NewRegistry()
	col := &obs.Collector{Metrics: reg}
	withFaultyWorld(2, 2, plan, col, func(p *Proc) {
		mustCreate(p, 0, 64)
		if p.Rank() != 0 {
			p.clk.Sleep(time.Millisecond) // keep rank 1 alive through the exchange
			return
		}
		must(p.WriteNotify(0, 0, 1, 0, 0, 64, 0, 1, 0, "op1"))
		comp := p.RequestWait(0, 4, Block)
		if len(comp) != 2 {
			t.Errorf("RequestWait returned %d completions, want 2 (write+notify)", len(comp))
		}
		for _, c := range comp {
			if c.OK || c.Tag != "op1" {
				t.Errorf("completion %+v, want OK=false Tag=op1", c)
			}
		}
		if st := p.QueueState(0); st != QueueError {
			t.Errorf("QueueState = %d, want QueueError", st)
		}
		if st := p.QueueState(1); st != QueueHealthy {
			t.Errorf("untouched queue errored: QueueState(1) = %d", st)
		}

		// Fast-fail on the errored queue: no fabric traffic, immediate
		// failed completions.
		before := p.fab.Stats().Messages
		must(p.Notify(1, 0, 3, 1, 0, "op2"))
		if got := p.fab.Stats().Messages; got != before {
			t.Errorf("post to errored queue reached the fabric (%d -> %d messages)", before, got)
		}
		comp = p.RequestWait(0, 4, Block)
		if len(comp) != 1 || comp[0].OK || comp[0].Tag != "op2" {
			t.Errorf("fast-fail completions = %+v, want one OK=false op2", comp)
		}

		// Wait must not hang across failures either.
		p.Wait(0)

		p.QueueRepair(0)
		if st := p.QueueState(0); st != QueueHealthy {
			t.Errorf("QueueState after repair = %d, want QueueHealthy", st)
		}
	})
	if n := reg.Counter("gaspi_queue_errors").Value(); n != 2 {
		t.Fatalf("gaspi_queue_errors = %d, want 2", n)
	}
}

// After a dropped operation, a repaired queue must deliver a resubmitted
// operation intact. A write+notify is one fabric message, so each post
// draws one roll; under withFaultyWorld's seed the path's first two rolls
// are 0.859 and 0.910, so at this rate the first post's two requests
// fail and the resubmission lands.
func TestQueueRepairRestoresServiceAfterDrop(t *testing.T) {
	plan := fabric.FaultPlan{GASPIDrop: 0.88}
	var got NotificationID
	var gotOK bool
	withFaultyWorld(2, 1, plan, nil, func(p *Proc) {
		seg := mustCreate(p, 0, 8)
		switch p.Rank() {
		case 0:
			copy(seg.Bytes(), "payload!")
			must(p.WriteNotify(0, 0, 1, 0, 0, 8, 5, 7, 0, "w"))
			comp := p.RequestWait(0, 4, Block)
			if len(comp) != 2 || comp[0].OK || comp[1].OK {
				t.Errorf("first post: completions %+v, want 2 failed", comp)
			}
			p.QueueRepair(0)
			must(p.WriteNotify(0, 0, 1, 0, 0, 8, 5, 7, 0, "w2"))
			comp = p.RequestWait(0, 4, Block)
			if len(comp) != 2 || !comp[0].OK || !comp[1].OK {
				t.Errorf("after repair: completions %+v, want 2 OK", comp)
			}
		case 1:
			got, gotOK = p.NotifyWaitSome(0, 0, 16, Block)
			if string(seg.Bytes()) != "payload!" {
				t.Errorf("data after repair = %q, want %q", seg.Bytes(), "payload!")
			}
		}
	})
	if !gotOK || got != 5 {
		t.Fatalf("notification after repair = (%d, %v), want (5, true)", got, gotOK)
	}
}

// Regression test for the NotifyWaitSome wait-recording fix: a timed wait
// that expires must advance the virtual clock by exactly the timeout (no
// busy-looping) and must record the wait on a metrics-only collector —
// previously only a full tracer saw timed waits, via a separate path.
func TestNotifyWaitSomeTimeoutRecordsWait(t *testing.T) {
	reg := obs.NewRegistry()
	col := &obs.Collector{Metrics: reg} // metrics enabled, tracer off
	const timeout = 50 * time.Microsecond
	withFaultyWorld(1, 1, fabric.FaultPlan{}, col, func(p *Proc) {
		mustCreate(p, 0, 8)
		start := p.clk.Now()
		id, ok := p.NotifyWaitSome(0, 0, 4, timeout)
		if ok || id != 0 {
			t.Errorf("NotifyWaitSome = (%d, %v), want (0, false) on timeout", id, ok)
		}
		if waited := p.clk.Now() - start; waited != timeout {
			t.Errorf("timed wait advanced the clock by %v, want exactly %v", waited, timeout)
		}
	})
	h := reg.Histogram("gaspi.notify_wait").Snapshot()
	if h.N != 1 || h.Sum != timeout {
		t.Fatalf("gaspi.notify_wait histogram n=%d sum=%v, want one %v sample", h.N, h.Sum, timeout)
	}
}

// The uninstrumented path must behave identically (nil recorder: same
// result, same modelled time, no recording machinery touched).
func TestNotifyWaitSomeTimeoutUninstrumented(t *testing.T) {
	const timeout = 50 * time.Microsecond
	withFaultyWorld(1, 1, fabric.FaultPlan{}, nil, func(p *Proc) {
		mustCreate(p, 0, 8)
		start := p.clk.Now()
		if _, ok := p.NotifyWaitSome(0, 0, 4, timeout); ok {
			t.Error("NotifyWaitSome found a notification in an empty segment")
		}
		if waited := p.clk.Now() - start; waited != timeout {
			t.Errorf("timed wait advanced the clock by %v, want exactly %v", waited, timeout)
		}
	})
}
