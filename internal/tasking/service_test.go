package tasking

import (
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// startService starts a service whose passes cost no modelled time and
// retire what poll returns.
func startService(rt *Runtime, name string, interval time.Duration, poll func() int) *Service {
	s := rt.NewService(name, interval, nil, nil)
	s.Start(func() { s.Done(poll()) })
	return s
}

func TestServicePollsPeriodically(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	var svc *Service
	clk.Go(func() {
		defer wg.Done()
		svc = startService(rt, "poll", 10*time.Microsecond, func() int { return 1 })
		rt.Submit(func(tk *Task) { tk.Compute(100 * time.Microsecond) })
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
	// application tasks run: an idle pass yields the core for minIdleTick.
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 1})
	var ran bool
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		startService(rt, "dedicated", 0, func() int { return 0 })
		rt.Submit(func(*Task) { ran = true })
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
	rt := New(clk, Config{Cores: 1})
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
