package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tasking"
	"repro/internal/vclock"
)

// startService starts a service whose passes cost no modelled time and
// retire what poll returns.
func startService(rt *tasking.Runtime, name string, interval time.Duration, poll func() int) *Service {
	s := NewService(rt, name, interval)
	s.Start(func() { s.Done(poll()) })
	return s
}

func TestServicePollsPeriodically(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := tasking.New(clk, tasking.Config{Cores: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	var svc *Service
	clk.Go(func() {
		defer wg.Done()
		svc = startService(rt, "poll", 10*time.Microsecond, func() int { return 1 })
		rt.Submit(func(tk *tasking.Task) { tk.Compute(100 * time.Microsecond) })
		rt.TaskWait()
		rt.Shutdown()
	})
	wg.Wait()
	if p := svc.Passes(); p < 9 || p > 12 {
		t.Fatalf("passes = %d, want ~10 over 100µs at 10µs period", p)
	}
	if idle := svc.IdlePasses(); idle != 0 {
		t.Fatalf("%d of %d passes counted idle, every pass retired one", idle, svc.Passes())
	}
}

func TestServiceDoesNotStarveWorkers(t *testing.T) {
	// A dedicated (0-interval) poller on a 1-core runtime must still let
	// application tasks run: WaitFor yields the core.
	clk := vclock.NewVirtual()
	rt := tasking.New(clk, tasking.Config{Cores: 1})
	var ran bool
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		startService(rt, "dedicated", 0, func() int { return 0 })
		rt.Submit(func(*tasking.Task) { ran = true })
		rt.TaskWait()
		rt.Shutdown()
	})
	wg.Wait()
	if !ran {
		t.Fatal("application task starved by dedicated poller")
	}
}

func TestServiceStopsOnShutdown(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := tasking.New(clk, tasking.Config{Cores: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var svc *Service
	clk.Go(func() {
		defer wg.Done()
		svc = startService(rt, "poll", time.Microsecond, func() int { return 0 })
		rt.Shutdown()
	})
	wg.Wait()
	p := svc.Passes()
	if p > 2 {
		t.Fatalf("poller kept running after Shutdown: %d passes", p)
	}
}

func TestPendingDrain(t *testing.T) {
	var q Pending[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Drain(nil)
	if len(got) != 10 {
		t.Fatalf("drained %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue not emptied")
	}
	// Drain appends to the private list.
	q.Push(100)
	got = q.Drain(got)
	if len(got) != 11 || got[10] != 100 {
		t.Fatalf("append-drain got %v", got)
	}
}

func TestPendingConcurrentProducers(t *testing.T) {
	var q Pending[int]
	var wg sync.WaitGroup
	const producers, items = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				q.Push(i)
			}
		}()
	}
	var got []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < producers*items {
			got = q.Drain(got)
		}
	}()
	wg.Wait()
	<-done
	if len(got) != producers*items {
		t.Fatalf("drained %d, want %d", len(got), producers*items)
	}
}

// Property: drain returns exactly the pushed items, preserving per-call
// push order.
func TestQuickPendingPreservesOrder(t *testing.T) {
	f := func(vals []int) bool {
		var q Pending[int]
		for _, v := range vals {
			q.Push(v)
		}
		got := q.Drain(nil)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
