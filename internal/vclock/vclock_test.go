package vclock

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// join runs fns on registered goroutines of c and returns when all finish.
// The caller is not registered; it blocks on a real WaitGroup while virtual
// time advances inside the spawned goroutines. The goroutines are launched
// as one group, so none can park — and the clock advance — before the clock
// knows them all.
func join(c *VirtualClock, fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	c.Launch(len(fns))(func(i int) {
		defer wg.Done()
		fns[i]()
	})
	wg.Wait()
}

func TestVirtualSleepAdvancesNow(t *testing.T) {
	c := NewVirtual()
	var end time.Duration
	join(c, func() {
		c.Sleep(5 * time.Millisecond)
		c.Sleep(7 * time.Millisecond)
		end = c.Now()
	})
	if end != 12*time.Millisecond {
		t.Fatalf("Now() = %v, want 12ms", end)
	}
}

func TestVirtualSleepZeroAndNegative(t *testing.T) {
	c := NewVirtual()
	join(c, func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
	})
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualConcurrentSleepersOverlap(t *testing.T) {
	// Two sleepers in parallel: total virtual time is the max, not the sum.
	c := NewVirtual()
	join(c,
		func() { c.Sleep(10 * time.Millisecond) },
		func() { c.Sleep(25 * time.Millisecond) },
		func() { c.Sleep(5 * time.Millisecond) },
	)
	if got := c.Now(); got != 25*time.Millisecond {
		t.Fatalf("Now() = %v, want 25ms", got)
	}
}

func TestVirtualTimerOrdering(t *testing.T) {
	c := NewVirtual()
	var mu sync.Mutex
	var order []int
	sleeper := func(id int, d time.Duration) func() {
		return func() {
			c.Sleep(d)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	join(c,
		sleeper(3, 30*time.Millisecond),
		sleeper(1, 10*time.Millisecond),
		sleeper(2, 20*time.Millisecond),
	)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestParkerUnparkBeforePark(t *testing.T) {
	c := NewVirtual()
	p := c.Parker()
	p.Unpark()
	join(c, func() {
		p.Park() // must not block: Unpark was already delivered
	})
}

func TestParkerHandoff(t *testing.T) {
	c := NewVirtual()
	p := c.Parker()
	var woke atomic.Bool
	join(c,
		func() {
			p.Park()
			woke.Store(true)
		},
		func() {
			c.Sleep(time.Millisecond)
			p.Unpark()
		},
	)
	if !woke.Load() {
		t.Fatal("parked goroutine did not wake")
	}
}

func TestParkTimeoutExpires(t *testing.T) {
	c := NewVirtual()
	var woke bool
	var at time.Duration
	join(c, func() {
		p := c.Parker()
		woke = p.ParkTimeout(3 * time.Millisecond)
		at = c.Now()
	})
	if woke {
		t.Fatal("ParkTimeout reported Unpark, want timeout")
	}
	if at != 3*time.Millisecond {
		t.Fatalf("woke at %v, want 3ms", at)
	}
}

func TestParkTimeoutUnparked(t *testing.T) {
	c := NewVirtual()
	p := c.Parker()
	var woke bool
	var at time.Duration
	join(c,
		func() {
			woke = p.ParkTimeout(time.Hour)
			at = c.Now()
		},
		func() {
			c.Sleep(2 * time.Millisecond)
			p.Unpark()
		},
	)
	if !woke {
		t.Fatal("ParkTimeout reported timeout, want Unpark")
	}
	if at != 2*time.Millisecond {
		t.Fatalf("woke at %v, want 2ms", at)
	}
}

func TestParkTimeoutNonPositive(t *testing.T) {
	c := NewVirtual()
	p := c.Parker()
	join(c, func() {
		if p.ParkTimeout(0) {
			t.Error("ParkTimeout(0) with no pending Unpark should report false")
		}
		p.Unpark()
		if !p.ParkTimeout(0) {
			t.Error("ParkTimeout(0) after Unpark should consume it and report true")
		}
	})
}

func TestDeadlockPanics(t *testing.T) {
	c := NewVirtual()
	done := make(chan any, 1)
	c.Go(func() {
		defer func() { done <- recover() }()
		p := c.Parker()
		p.SetName("lonely")
		p.Park() // nobody will ever unpark: deadlock
	})
	r := <-done
	if r == nil {
		t.Fatal("expected deadlock panic, got none")
	}
}

func TestUnparkFromUnregisteredGoroutine(t *testing.T) {
	// Unpark must be callable from outside the simulation (e.g. a driver).
	c := NewVirtual()
	p := c.Parker()
	p.SetExternal(true) // exempt from deadlock detection: the driver wakes it
	released := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		close(released)
		p.Park()
	})
	<-released
	// Give the simulated goroutine a moment to actually park.
	//lint:ignore detlint host-side pause: lets the external Unpark race a real park; either order is correct
	time.Sleep(time.Millisecond)
	p.Unpark()
	wg.Wait()
}

func TestVirtualManyGoroutines(t *testing.T) {
	c := NewVirtual()
	const n = 1000
	var total atomic.Int64
	fns := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		fns[i] = func() {
			c.Sleep(time.Duration(i%17+1) * time.Millisecond)
			total.Add(1)
		}
	}
	join(c, fns...)
	if total.Load() != n {
		t.Fatalf("completed %d goroutines, want %d", total.Load(), n)
	}
	if got, want := c.Now(), 17*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualNestedGo(t *testing.T) {
	c := NewVirtual()
	var sum atomic.Int64
	join(c, func() {
		var wg sync.WaitGroup
		for i := 0; i < 10; i++ {
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				c.Sleep(time.Millisecond)
				sum.Add(1)
			})
		}
		// Blocking on a non-clock-aware primitive requires leaving the
		// simulation first, or virtual time would stall.
		c.Unregister()
		wg.Wait()
		c.Register()
	})
	if sum.Load() != 10 {
		t.Fatalf("sum = %d, want 10", sum.Load())
	}
}

// Property: for any set of sleep durations run concurrently, the final
// virtual time equals the maximum duration, and sequential sleeps sum.
func TestQuickSleepMaxProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 64 {
			ds = ds[:64]
		}
		c := NewVirtual()
		var want time.Duration
		fns := make([]func(), len(ds))
		for i, d := range ds {
			d := time.Duration(d) * time.Microsecond
			if d > want {
				want = d
			}
			fns[i] = func() { c.Sleep(d) }
		}
		join(c, fns...)
		return c.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: N sequential sleeps advance the clock by their exact sum.
func TestQuickSleepSumProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) > 128 {
			ds = ds[:128]
		}
		c := NewVirtual()
		var want time.Duration
		join(c, func() {
			for _, d := range ds {
				dd := time.Duration(d) * time.Microsecond
				want += dd
				c.Sleep(dd)
			}
		})
		return c.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: timers fire in deadline order regardless of creation order.
func TestQuickTimerOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%32) + 2
		c := NewVirtual()
		type rec struct {
			d    time.Duration
			woke time.Duration
		}
		recs := make([]rec, k)
		fns := make([]func(), k)
		for i := 0; i < k; i++ {
			i := i
			recs[i].d = time.Duration(rng.Intn(1000)) * time.Microsecond
			fns[i] = func() {
				c.Sleep(recs[i].d)
				recs[i].woke = c.Now()
			}
		}
		join(c, fns...)
		for _, r := range recs {
			if r.woke != r.d {
				return false
			}
		}
		ds := make([]time.Duration, k)
		for i, r := range recs {
			ds[i] = r.d
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return c.Now() == ds[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVirtualSleep(b *testing.B) {
	c := NewVirtual()
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			c.Sleep(time.Microsecond)
		}
	})
	wg.Wait()
}

func BenchmarkVirtualPingPong(b *testing.B) {
	c := NewVirtual()
	p1, p2 := c.Parker(), c.Parker()
	var wg sync.WaitGroup
	wg.Add(2)
	c.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			p2.Unpark()
			p1.Park()
		}
	})
	c.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			p2.Park()
			p1.Unpark()
		}
	})
	wg.Wait()
}
