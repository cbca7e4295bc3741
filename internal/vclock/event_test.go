package vclock

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// newEvent returns an Event bound to c that runs fn when it fires.
func newEvent(c *VirtualClock, fn func()) *Event {
	e := new(Event)
	c.InitEvent(e, fn)
	return e
}

// Property: callback events and goroutine timers share one (deadline, seq)
// order. A driver arms a random mix of both, one after the other, with
// deadlines from a small set so that many are equal; the fire order must be
// the single list sorted by deadline, then by arming order.
func TestQuickEventAndTimerShareOneOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%48) + 2
		c := NewVirtual()
		type item struct {
			id int
			d  time.Duration
		}
		var mu sync.Mutex
		var got []int
		fired := func(id int) {
			mu.Lock()
			got = append(got, id)
			mu.Unlock()
		}
		want := make([]item, k)
		join(c, func() {
			for i := 0; i < k; i++ {
				d := time.Duration(rng.Intn(4)+1) * time.Microsecond
				want[i] = item{i, d}
				if rng.Intn(2) == 0 {
					newEvent(c, func() { fired(i) }).After(d)
					continue
				}
				// A goroutine timer armed here and now: the driver draws
				// the sequence (the first half of ParkTimeout), the park
				// happens whenever the goroutine gets to run.
				p := c.Parker()
				tm := p.timerFor(d)
				c.Go(func() {
					p.park(tm)
					fired(i)
				})
			}
			c.Sleep(10 * time.Microsecond) // outlive every timer
		})
		sort.SliceStable(want, func(i, j int) bool { return want[i].d < want[j].d })
		if len(got) != k {
			return false
		}
		for i := range want {
			if got[i] != want[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEventCallbackMayUnparkAndGo(t *testing.T) {
	c := NewVirtual()
	p := c.Parker()
	var unparkedAt, spawnedDone time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	ev := newEvent(c, func() {
		p.Unpark()
		c.Go(func() {
			defer wg.Done()
			c.Sleep(3 * time.Microsecond)
			spawnedDone = c.Now()
		})
	})
	join(c, func() {
		ev.After(5 * time.Microsecond)
		p.Park()
		unparkedAt = c.Now()
	})
	wg.Wait()
	if unparkedAt != 5*time.Microsecond {
		t.Errorf("parker woken at %v, want 5µs", unparkedAt)
	}
	if spawnedDone != 8*time.Microsecond {
		t.Errorf("goroutine spawned by the callback finished at %v, want 8µs", spawnedDone)
	}
}

func TestEventRearmsFromItsOwnCallback(t *testing.T) {
	c := NewVirtual()
	var fires []time.Duration
	var ev *Event
	ev = newEvent(c, func() {
		fires = append(fires, c.Now())
		if len(fires) < 5 {
			ev.After(2 * time.Microsecond)
		}
	})
	join(c, func() {
		ev.After(2 * time.Microsecond)
		c.Sleep(time.Millisecond)
	})
	if len(fires) != 5 {
		t.Fatalf("fired %d times, want 5", len(fires))
	}
	for i, at := range fires {
		if want := time.Duration(2*(i+1)) * time.Microsecond; at != want {
			t.Errorf("fire %d at %v, want %v", i, at, want)
		}
	}
}

func TestEventArmedTwicePanics(t *testing.T) {
	c := NewVirtual()
	ev := newEvent(c, func() {})
	ev.After(time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("second After on an armed event did not panic")
		}
	}()
	ev.After(time.Microsecond)
}

// An Event held by value in the caller's record fires like an allocated
// one, and re-initialising it while armed panics.
func TestInitEventCallerOwned(t *testing.T) {
	c := NewVirtual()
	var rec struct {
		ev    Event
		fired time.Duration
	}
	c.InitEvent(&rec.ev, func() { rec.fired = c.Now() })
	join(c, func() {
		rec.ev.After(4 * time.Microsecond)
		c.Sleep(5 * time.Microsecond)
	})
	if rec.fired != 4*time.Microsecond {
		t.Errorf("caller-owned event fired at %v, want 4µs", rec.fired)
	}
	rec.ev.After(time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("InitEvent on an armed event did not panic")
		}
	}()
	c.InitEvent(&rec.ev, func() {})
}

// A clock whose goroutines have all left must stop, even with callback
// events still re-arming themselves: nobody is there to see them fire. (A
// service that ticked on its own goroutine kept such a clock — and a host
// core — spinning forever after a test that skipped Shutdown.)
func TestEventsAloneDoNotAdvanceAnAbandonedClock(t *testing.T) {
	c := NewVirtual()
	var fires atomic.Int64
	var ev *Event
	ev = newEvent(c, func() {
		fires.Add(1)
		ev.After(time.Microsecond)
	})
	// An idle worker parked on an external parker is no reason to go on.
	idle := c.Parker()
	idle.SetExternal(true)
	c.Go(idle.Park)

	c.Register()
	ev.After(time.Microsecond)
	c.Sleep(10 * time.Microsecond)
	c.Unregister() // runs the advance step: must return
	n := fires.Load()
	if n < 9 || n > 10 {
		t.Fatalf("event fired %d times during a 10µs sleep at a 1µs period", n)
	}
	if now := c.Now(); now != 10*time.Microsecond {
		t.Fatalf("abandoned clock ran on to %v", now)
	}

	// The events are still armed: time resumes when someone waits again.
	c.Register()
	c.Sleep(5 * time.Microsecond)
	c.Unregister()
	if got := fires.Load() - n; got < 4 || got > 6 {
		t.Fatalf("event fired %d times during the second, 5µs sleep", got)
	}
	idle.Unpark()
}

// A fired event must not stay reachable from the clock: the spare capacity
// of the timer heap used to keep the last popped timers, which for an event
// means its callback and everything the callback closes over (a whole
// finished job, in cluster.Run's case) until the clock itself is collected.
func TestFiredEventIsNotRetainedByTheClock(t *testing.T) {
	c := NewVirtual()
	collected := make(chan struct{})
	func() {
		state := new([1 << 16]byte)
		runtime.SetFinalizer(state, func(*[1 << 16]byte) { close(collected) })
		ev := newEvent(c, func() { state[0]++ })
		join(c, func() {
			ev.After(time.Microsecond)
			c.Sleep(2 * time.Microsecond)
		})
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		//lint:ignore detlint host-side wait for the garbage collector's finalizer goroutine, not modelled time
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the state of a fired event is still reachable (clock at %v)", c.Now())
}

// A panic in a callback must unwind the goroutine that was advancing the
// clock like any other panic. That goroutine's deferred Unregister runs
// while it panics and re-enters the advance step, which deadlocked on the
// advance lock — a hung run instead of a crash with a stack trace.
func TestEventCallbackPanicIsNotSwallowed(t *testing.T) {
	c := NewVirtual()
	newEvent(c, func() { panic("boom") }).After(time.Microsecond)
	done := make(chan any, 1)
	go func() {
		c.Register()
		defer func() {
			r := recover()
			c.Unregister() // what Go's wrapper does on the way out
			done <- r
		}()
		c.Sleep(2 * time.Microsecond)
	}()
	select {
	case r := <-done:
		if r != "boom" {
			t.Fatalf("recovered %v, want the callback's panic", r)
		}
	//lint:ignore detlint host-side hang watchdog: a correct clock propagates the panic at once
	case <-time.After(5 * time.Second):
		t.Fatal("the panicking goroutine hung in Unregister")
	}
}

// TestTimerSizeClass pins timer at 48 bytes, one allocation size class:
// every parker and event embeds one, and a field more would put it in the
// 64-byte class.
func TestTimerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(timer{}); n != 48 {
		t.Fatalf("timer is %d bytes, want 48", n)
	}
}

// TestResumerKeysTheWake checks the key Resumer reports to a goroutine:
// the deadline, sequence number and draw instant of the timer whose
// firing resumed it — its own Sleep, an event whose callback unparked it,
// and a stream item whose callback did, which keeps no draw instant.
func TestResumerKeysTheWake(t *testing.T) {
	c := NewVirtual()
	join(c, func() {
		if k := c.Resumer(); k != (Key{}) {
			t.Errorf("before any timer fired: %+v, want the zero Key", k)
		}
		c.Sleep(5)
		k := c.Resumer()
		if k.Deadline != 5 || k.Drawn != 0 || k.Seq != c.Seq() {
			t.Errorf("after Sleep(5) from 0: %+v, want deadline 5 drawn at 0 with the last seq %d", k, c.Seq())
		}
		p := c.Parker()
		newEvent(c, p.Unpark).After(3)
		seq := c.Seq()
		p.Park()
		if k := c.Resumer(); k != (Key{Deadline: 8, Seq: seq, Drawn: 5}) {
			t.Errorf("after an event armed at 5 for 3 unparked us: %+v, want {8 %d 5}", k, seq)
		}
		var s Stream[*Parker]
		InitStream(c, &s, (*Parker).Unpark)
		s.Push(4, p)
		seq = c.Seq()
		p.Park()
		if k := c.Resumer(); k != (Key{Deadline: 12, Seq: seq, Drawn: NotDrawn}) {
			t.Errorf("after a stream item pushed at 8 for 4 unparked us: %+v, want {12 %d %d}", k, seq, NotDrawn)
		}
	})
}
