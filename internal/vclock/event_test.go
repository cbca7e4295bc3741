package vclock

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// TestFiredOrdersByKey checks what Fired and FiredDrawn tell a goroutine
// about a key due at the instant it resumed, against the timer whose
// firing resumed it — its own Sleep, an event whose callback unparked it,
// a stream item whose callback did: an earlier deadline or draw instant
// has fired, a later one has not, and a ranked event drawn at the
// resumer's instant is undecided unless the resumer is ranked too.
func TestFiredOrdersByKey(t *testing.T) {
	c := NewVirtual()
	var ev Event
	c.InitRankedEvent(&ev, func() {})
	check := func(what string, due, drawn time.Duration, fired, undecided bool) {
		t.Helper()
		if f, u := ev.FiredDrawn(due, drawn); f != fired || u != undecided {
			t.Errorf("%s: FiredDrawn(%v, %v) = %v, %v, want %v, %v", what, due, drawn, f, u, fired, undecided)
		}
	}
	join(c, func() {
		before := c.Draw(5) // drawn at 0, before the Sleep's own draw
		c.Sleep(5)
		after := c.Draw(0)
		if !c.Fired(before) || c.Fired(after) {
			t.Errorf("Fired(%+v), Fired(%+v) = %v, %v: want the draw before the Sleep's fired, the one after not",
				before, after, c.Fired(before), c.Fired(after))
		}
		check("due earlier", 4, 4, true, false)
		check("due later", 6, 0, false, false)
		check("drawn at the resumer's instant", 5, 0, false, true)

		p := c.Parker()
		newEvent(c, p.Unpark).After(3)
		p.Park()
		check("drawn before an event drawn at 5", 8, 4, true, false)
		check("drawn with an event drawn at 5", 8, 5, false, true)

		var s Stream[*Parker]
		InitStream(c, &s, (*Parker).Unpark)
		s.Push(4, p)
		p.Park()
		check("drawn before a stream item drawn at 8", 12, 7, true, false)
		check("drawn with a stream item drawn at 8", 12, 8, false, true)
		check("drawn after a stream item drawn at 8", 12, 9, false, false)
	})
}

// TestAtDrawnPlacesByRank arms ranked events with keys they did not draw
// and checks where they fire among timers due with them: after every key
// drawn at an earlier instant, right after the last armed ranked event
// drawn at their instant and ranked below them, or right before the first
// ranked above. A placement among a timer drawn at that instant that is
// not a ranked event is reported undecided.
func TestAtDrawnPlacesByRank(t *testing.T) {
	c := NewVirtual()
	var order []string
	var evs [5]Event
	for i := range evs {
		name := fmt.Sprintf("rank %d", i+1)
		c.InitRankedEvent(&evs[i], func() { order = append(order, name) })
	}
	mark := func(name string) func() { return func() { order = append(order, name) } }
	join(c, func() {
		newEvent(c, mark("drawn at 0")).After(10)
		c.Sleep(2)
		evs[1].After(8) // rank 2, drawn at 2
		evs[3].After(8) // rank 4, drawn at 2
		for _, i := range []int{2, 0} {
			if evs[i].AtDrawn(10, 2) {
				t.Errorf("rank %d: placement undecided", i+1)
			}
		}
		newEvent(c, mark("drawn at 2")).After(8)
		if !evs[4].AtDrawn(10, 2) {
			t.Error("rank 5 placed beside an unranked timer drawn at its instant: decided, want undecided")
		}
		c.Sleep(9)
	})
	want := []string{"drawn at 0", "rank 1", "rank 2", "rank 3", "rank 4", "rank 5", "drawn at 2"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %q, want %q", order, want)
	}
}
