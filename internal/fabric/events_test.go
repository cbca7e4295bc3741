package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestFabricRunsNoGoroutines pins the shape of the fabric: every step of
// a 63-to-1 incast over a 64-node mesh runs as a clock callback on one of
// the senders' goroutines, so the goroutine count during traffic is the
// senders' and nothing is left to join after Close.
func TestFabricRunsNoGoroutines(t *testing.T) {
	const (
		nodes     = 64
		senders   = nodes - 1
		perSender = 16
	)
	base := runtime.NumGoroutine()
	clk := vclock.NewVirtual()
	f := New(clk, NewMeshTopology(nodes, 1), ProfileOmniPath())
	// Senders stay parked until the last delivery, so every sample below is
	// taken with all of them alive.
	release := make([]*vclock.Parker, senders)
	for i := range release {
		release[i] = clk.Parker()
	}
	left, peak := senders*perSender, 0
	f.Register(0, ClassMPI, func(m *Message) {
		peak = max(peak, runtime.NumGoroutine())
		if left--; left == 0 {
			for _, p := range release {
				p.Unpark()
			}
		}
	})
	var wg sync.WaitGroup
	wg.Add(senders)
	// One Launch, not a Go per sender: the first sender to park must not
	// see the clock run dry before the others exist.
	clk.Launch(senders)(func(s int) {
		defer wg.Done()
		for i := 0; i < perSender; i++ {
			m := NewMessage()
			m.Src, m.Dst, m.Class, m.Size = Rank(s+1), 0, ClassMPI, 4<<10
			f.Send(m)
		}
		release[s].Park()
	})
	wg.Wait()
	if left != 0 {
		t.Fatalf("%d messages undelivered", left)
	}
	// base may still count a goroutine of an earlier test on its way out,
	// so the bounds are one-sided: all senders alive, none added to them.
	if peak < senders || peak > base+senders {
		t.Fatalf("%d goroutines during traffic with %d senders over a base of %d: the fabric runs goroutines of its own",
			peak, senders, base)
	}
	f.Close()
	for i := 0; i < 1_000_000 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched() // the senders are past wg.Done and returning
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after Close, %d before the fabric existed", g, base)
	}
}

// TestResendFromInjectedHookSameDomain drives the one place Send and a
// callback meet: an OnInjected hook wakes the sender, which posts its next
// message on the same domain while the callback that woke it is still in
// injNext, idling the chain. A bystander that parks after the sender is the
// goroutine advancing the clock, so the two run on different host threads;
// under -race the test fails if dom.mu stops guarding pend and injBusy.
func TestResendFromInjectedHookSameDomain(t *testing.T) {
	const n = 500
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var order []int
	f.Register(1, ClassMPI, func(m *Message) { order = append(order, m.Payload.(int)) })
	var wg sync.WaitGroup
	wg.Add(2)
	bystander := clk.Parker()
	var done atomic.Bool
	// Both goroutines are registered before either runs: a bystander that
	// parked before the sender existed would be reported as a deadlock.
	clk.Launch(2)(func(i int) {
		defer wg.Done()
		if i == 0 {
			for !done.Load() {
				bystander.Park()
			}
			return
		}
		injected := clk.Parker()
		for i := 0; i < n; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 100, Payload: i,
				OnInjected: injected.Unpark})
			bystander.Unpark() // it re-parks after us and runs the injection callback
			injected.Park()
		}
		done.Store(true)
		bystander.Unpark()
		clk.Sleep(time.Second) // outlive the last delivery
	})
	wg.Wait()
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: re-sending from the hook's wake broke the domain FIFO", i, v)
		}
	}
}
