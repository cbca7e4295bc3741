package tasking

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

// run executes fn as the "rank main" of a fresh virtual-clock runtime and
// waits for it to return.
func run(cores int, fn func(clk *vclock.VirtualClock, rt *Runtime)) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: cores})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		fn(clk, rt)
	})
	wg.Wait()
}

// spawnLoop starts a polling service whose passes call step (if not nil)
// and then wait d, until the runtime stops.
func spawnLoop(rt *Runtime, label string, d time.Duration, step func()) {
	svc := rt.NewService(label, d, nil, nil)
	svc.Start(func() {
		if step != nil {
			step()
		}
		svc.Done(0)
	})
}

func TestSubmitAndTaskWait(t *testing.T) {
	var ran atomic.Int32
	run(4, func(clk *vclock.VirtualClock, rt *Runtime) {
		for i := 0; i < 20; i++ {
			rt.Submit(func(*Task) { ran.Add(1) })
		}
		rt.TaskWait()
		if ran.Load() != 20 {
			t.Errorf("ran = %d, want 20", ran.Load())
		}
	})
}

func TestTaskWaitNoTasks(t *testing.T) {
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		rt.TaskWait() // must not block
	})
}

// TestStuckTaskWaitIsNamed: TaskWait is Throttle(0), and a rank main stuck
// in it must still read "taskwait" in the clock's deadlock report. The
// report reaches the main, which can recover it, even when the body's
// goroutine is the last to stop and finds the deadlock on its way out.
func TestStuckTaskWaitIsNamed(t *testing.T) {
	var report any
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		rt.Submit(func(tk *Task) { tk.Events().Increase(1) }) // never fulfilled
		defer func() { report = recover() }()
		rt.TaskWait()
	})
	if msg, _ := report.(string); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "[taskwait]") {
		t.Fatalf("deadlock report %v does not name taskwait", report)
	}
}

func TestDependencySerializationOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	run(4, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		for i := 0; i < 10; i++ {
			i := i
			rt.Submit(func(tk *Task) {
				tk.Compute(time.Microsecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}, WithDeps(InOutVal(buf)))
		}
		rt.TaskWait()
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inout chain ran out of order: %v", order)
		}
	}
}

func TestReadersRunConcurrently(t *testing.T) {
	// One writer, then 8 readers with 1µs bodies on 8 cores: the readers
	// must overlap (total well under 8µs of serial time).
	var end time.Duration
	run(8, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) },
			WithDeps(Out(buf, 0, 100)))
		for i := 0; i < 8; i++ {
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) },
				WithDeps(In(buf, 0, 100)))
		}
		rt.TaskWait()
		end = clk.Now()
	})
	if end != 2*time.Microsecond {
		t.Fatalf("writer+8 parallel readers took %v, want 2µs", end)
	}
}

func TestDisjointRegionsParallel(t *testing.T) {
	var end time.Duration
	run(4, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		for i := 0; i < 4; i++ {
			lo := i * 10
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) },
				WithDeps(Out(buf, lo, lo+10)))
		}
		rt.TaskWait()
		end = clk.Now()
	})
	if end != time.Microsecond {
		t.Fatalf("4 disjoint writers took %v, want 1µs (parallel)", end)
	}
}

func TestCoreLimitSerializes(t *testing.T) {
	var end time.Duration
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		for i := 0; i < 6; i++ {
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) })
		}
		rt.TaskWait()
		end = clk.Now()
	})
	if end != 3*time.Microsecond {
		t.Fatalf("6 x 1µs tasks on 2 cores took %v, want 3µs", end)
	}
}

func TestExternalEventsDelayRelease(t *testing.T) {
	// A task binds an event; its successor must not run until the event is
	// fulfilled, even though the body finished long before.
	var successorAt time.Duration
	run(4, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		var counter *EventCounter
		rt.Submit(func(tk *Task) {
			c := tk.Events()
			c.Increase(1)
			counter = c
		}, WithDeps(OutVal(buf)), WithLabel("comm"))
		rt.Submit(func(tk *Task) {
			successorAt = clk.Now()
		}, WithDeps(InVal(buf)), WithLabel("consumer"))

		// Fulfil the event from a "courier" 50µs later.
		clk.Go(func() {
			clk.Sleep(50 * time.Microsecond)
			counter.Decrease(1)
		})
		rt.TaskWait()
	})
	if successorAt != 50*time.Microsecond {
		t.Fatalf("successor ran at %v, want 50µs (after event)", successorAt)
	}
}

func TestEventsMultiple(t *testing.T) {
	var successorRan atomic.Bool
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		var counter *EventCounter
		rt.Submit(func(tk *Task) {
			counter = tk.Events()
			counter.Increase(3)
		}, WithDeps(OutVal(buf)))
		rt.Submit(func(*Task) { successorRan.Store(true) }, WithDeps(InVal(buf)))
		clk.Go(func() {
			clk.Sleep(time.Microsecond)
			counter.Decrease(1)
			clk.Sleep(time.Microsecond)
			counter.Decrease(1)
			if successorRan.Load() {
				t.Error("successor ran before all events fulfilled")
			}
			counter.Decrease(1)
		})
		rt.TaskWait()
	})
	if !successorRan.Load() {
		t.Fatal("successor never ran")
	}
}

func TestEventCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 1})
	tk := &Task{rt: rt}
	tk.comp = EventCounter{t: tk, n: 0}
	tk.comp.Decrease(1)
}

func TestOnReadyRunsBeforeBody(t *testing.T) {
	var seq []string
	var mu sync.Mutex
	log := func(s string) { mu.Lock(); seq = append(seq, s); mu.Unlock() }
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		buf := new(int)
		rt.Submit(func(*Task) { log("pred") }, WithDeps(OutVal(buf)))
		rt.Submit(func(*Task) { log("body") },
			WithDeps(InVal(buf)),
			WithOnReady(func(*Task) { log("onready") }))
		rt.TaskWait()
	})
	want := []string{"pred", "onready", "body"}
	if len(seq) != 3 {
		t.Fatalf("seq = %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestOnReadyEventsDelayExecution(t *testing.T) {
	// The onready callback registers an event (the §V-A remote-dependency
	// pattern); the body must not run until it is fulfilled.
	var bodyAt time.Duration
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		var counter *EventCounter
		rt.Submit(func(tk *Task) {
			bodyAt = clk.Now()
		}, WithOnReady(func(tk *Task) {
			counter = tk.Events()
			counter.Increase(1) // "waiting for the ack notification"
		}))
		clk.Go(func() {
			clk.Sleep(30 * time.Microsecond)
			counter.Decrease(1) // "ack arrived"
		})
		rt.TaskWait()
	})
	if bodyAt != 30*time.Microsecond {
		t.Fatalf("body ran at %v, want 30µs", bodyAt)
	}
}

func TestOnReadyEventAlreadyFulfilled(t *testing.T) {
	// If the callback registers no events the task runs immediately.
	var ran atomic.Bool
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		rt.Submit(func(*Task) { ran.Store(true) },
			WithOnReady(func(*Task) {}))
		rt.TaskWait()
	})
	if !ran.Load() {
		t.Fatal("task never ran")
	}
}

func TestBodiesBoundedByCores(t *testing.T) {
	// A body holds its core until it returns and gets its goroutine only
	// with the core, so 200 ready tasks on four cores never run more than
	// four bodies at once, nor hold a goroutine each while they wait.
	const cores, tasks = 4, 200
	for _, overhead := range []time.Duration{0, 250 * time.Nanosecond} {
		clk := vclock.NewVirtual()
		rt := New(clk, Config{Cores: cores, DispatchOverhead: overhead})
		base := runtime.NumGoroutine()
		var live, peak, peakG atomic.Int64
		raise := func(m *atomic.Int64, v int64) {
			for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			for i := 0; i < tasks; i++ {
				rt.Submit(func(tk *Task) {
					raise(&peak, live.Add(1))
					raise(&peakG, int64(runtime.NumGoroutine()-base))
					tk.Compute(time.Microsecond)
					live.Add(-1)
				})
			}
			rt.TaskWait()
			rt.Shutdown()
		})
		wg.Wait()
		if p := peak.Load(); p > cores {
			t.Fatalf("overhead %v: %d bodies ran at once, want <= %d", overhead, p, cores)
		}
		// The main and the running bodies, plus slack for finished
		// bodies' goroutines the host has not yet retired; a goroutine per
		// waiting task would reach the task count.
		if g := peakG.Load(); g > tasks/4 {
			t.Fatalf("overhead %v: %d goroutines above the base, want <= %d", overhead, g, tasks/4)
		}
	}
}

func TestDispatchOverheadKeyedAtGrant(t *testing.T) {
	// The dispatch overhead's timer is keyed on the goroutine that grants
	// the core, when it grants it, as a service's is: a task granted at
	// once by Submit starts at 250ns ahead of the submitter's own 250ns
	// sleep, whatever goroutine the host schedules first.
	for i := 0; i < 50; i++ {
		clk := vclock.NewVirtual()
		rt := New(clk, Config{Cores: 1, DispatchOverhead: 250 * time.Nanosecond})
		var ran atomic.Bool
		early := false
		var wg sync.WaitGroup
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			rt.Submit(func(*Task) { ran.Store(true) })
			clk.Sleep(250 * time.Nanosecond)
			early = ran.Load()
			rt.TaskWait()
		})
		wg.Wait()
		if !early {
			t.Fatalf("run %d: the submitter woke at 250ns before the body granted ahead of it", i)
		}
	}
}

func TestSpawnAndShutdown(t *testing.T) {
	var polls atomic.Int32
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "poller", 10*time.Microsecond, func() { polls.Add(1) })
		rt.Submit(func(tk *Task) { tk.Compute(100 * time.Microsecond) })
		rt.TaskWait()
		rt.Shutdown()
	})
	if p := polls.Load(); p < 5 {
		t.Fatalf("poller ran %d times, want >= 5", p)
	}
}

func TestSpawnDoesNotBlockTaskWait(t *testing.T) {
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "svc", time.Microsecond, nil)
		rt.Submit(func(*Task) {})
		rt.TaskWait() // must return even though the service still runs
		rt.Shutdown()
	})
}

func TestSubmitAfterShutdownPanics(t *testing.T) {
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		rt.Shutdown()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		rt.Submit(func(*Task) {})
	})
}

func TestThrottle(t *testing.T) {
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		for i := 0; i < 10; i++ {
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) })
		}
		rt.Throttle(3)
		rt.mu.Lock()
		live := rt.live
		rt.mu.Unlock()
		if live > 3 {
			t.Errorf("Throttle returned with %d live tasks, want <= 3", live)
		}
		rt.TaskWait()
	})
}

func TestSubmitAndDispatchOverheads(t *testing.T) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 1, SubmitOverhead: time.Microsecond, DispatchOverhead: 2 * time.Microsecond})
	var end time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			rt.Submit(func(*Task) {})
		}
		rt.TaskWait()
		end = clk.Now()
	})
	wg.Wait()
	// The 5 Submits return at once, and the creation chain creates task i
	// at (i+1)µs, as a submitter paying 1µs per task in turn would; the 5
	// dispatches take 2µs each on one core, and the dispatch of task i
	// overlaps the creation of task i+1, so total = submit(1µs) +
	// 5*dispatch(2µs) = 11µs.
	if end != 11*time.Microsecond {
		t.Fatalf("total %v, want 11µs", end)
	}
}

// TestSubmitReturnsWithoutParking: a burst of Submits from the rank main
// spends no modelled time, and the main's next runtime call waits out
// their creation costs in one park.
func TestSubmitReturnsWithoutParking(t *testing.T) {
	const n, overhead = 1000, 150 * time.Nanosecond
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 2, SubmitOverhead: overhead})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		base := new(int)
		for i := 0; i < n; i++ {
			rt.Submit(func(*Task) {}, WithDeps(InOutVal(base)), NonBlocking())
			if now := clk.Now(); now != 0 {
				t.Errorf("Submit %d returned at %v, want 0", i, now)
				return
			}
		}
		if now := rt.Now(); now != n*overhead {
			t.Errorf("rt.Now() = %v after %d Submits, want %v", now, n, n*overhead)
		}
		rt.TaskWait()
		if st := rt.Stats(); st.Completed != n {
			t.Errorf("%d tasks completed, want %d", st.Completed, n)
		}
	})
	wg.Wait()
}

func TestStats(t *testing.T) {
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "svc", time.Microsecond, nil)
		for i := 0; i < 7; i++ {
			rt.Submit(func(*Task) {})
		}
		rt.TaskWait()
		st := rt.Stats()
		if st.Submitted != 7 || st.Spawned != 1 {
			t.Errorf("stats = %+v", st)
		}
		if st.Completed != 7 {
			t.Errorf("completed = %d, want 7", st.Completed)
		}
		rt.Shutdown()
	})
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(vclock.NewVirtual(), Config{Cores: 0})
}

// Property: for any random task graph over a shared array, tasks with
// conflicting accesses (not both reads) never overlap in virtual time, and
// conflicting tasks complete in submission order.
func TestQuickConflictingTasksNeverOverlap(t *testing.T) {
	const size = 32
	type span struct {
		lo, hi     int
		mode       AccessMode
		start, end time.Duration
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%20) + 2
		spans := make([]span, k)
		var mu sync.Mutex
		ok := true
		durs := make([]time.Duration, k)
		for i := range durs {
			durs[i] = time.Duration(1+rng.Intn(3)) * time.Microsecond
		}
		run(4, func(clk *vclock.VirtualClock, rt *Runtime) {
			base := new(int)
			for i := 0; i < k; i++ {
				i := i
				lo := rng.Intn(size)
				hi := lo + 1 + rng.Intn(size-lo)
				mode := AccessMode(rng.Intn(3))
				spans[i] = span{lo: lo, hi: hi, mode: mode}
				rt.Submit(func(tk *Task) {
					mu.Lock()
					spans[i].start = clk.Now()
					mu.Unlock()
					tk.Compute(durs[i])
					mu.Lock()
					spans[i].end = clk.Now()
					mu.Unlock()
				}, WithDeps(Dep{Mode: mode, Base: base, Lo: lo, Hi: hi}))
			}
			rt.TaskWait()
		})
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				a, b := spans[i], spans[j]
				overlapRange := a.lo < b.hi && b.lo < a.hi
				conflict := overlapRange && !(a.mode == AccessIn && b.mode == AccessIn)
				if !conflict {
					continue
				}
				// i was submitted first: it must fully precede j.
				if !(a.end <= b.start) {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every submitted task eventually completes for random graphs
// (no lost wakeups in the scheduler), and TaskWait returns only after all
// bodies ran.
func TestQuickAllTasksComplete(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%50) + 1
		var ran atomic.Int32
		var completedAfterWait int64
		run(3, func(clk *vclock.VirtualClock, rt *Runtime) {
			base := new(int)
			for i := 0; i < k; i++ {
				lo := rng.Intn(16)
				hi := lo + 1 + rng.Intn(16-lo+1)
				mode := AccessMode(rng.Intn(3))
				rt.Submit(func(tk *Task) { ran.Add(1) },
					WithDeps(Dep{Mode: mode, Base: base, Lo: lo, Hi: hi}))
			}
			rt.TaskWait()
			completedAfterWait = rt.Stats().Completed
		})
		return int(ran.Load()) == k && completedAfterWait == int64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitExecute(b *testing.B) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			rt.Submit(func(*Task) {})
		}
		rt.TaskWait()
	})
	wg.Wait()
}

func BenchmarkDependencyChain(b *testing.B) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		base := new(int)
		for i := 0; i < b.N; i++ {
			rt.Submit(func(*Task) {}, WithDeps(InOutVal(base)))
		}
		rt.TaskWait()
	})
	wg.Wait()
}

// BenchmarkStepSubmitExecute is BenchmarkSubmitExecute for step bodies
// (NonBlocking), the kind every compute, wait and TAGASPI post task of the
// apps runs as: no goroutine per task.
func BenchmarkStepSubmitExecute(b *testing.B) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			rt.Submit(func(*Task) {}, NonBlocking())
		}
		rt.TaskWait()
	})
	wg.Wait()
}

// BenchmarkStepDependencyChain is BenchmarkDependencyChain for step
// bodies.
func BenchmarkStepDependencyChain(b *testing.B) {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		base := new(int)
		for i := 0; i < b.N; i++ {
			rt.Submit(func(*Task) {}, WithDeps(InOutVal(base)), NonBlocking())
		}
		rt.TaskWait()
	})
	wg.Wait()
}

// TestShutdownIdempotent is the early-teardown regression test for the
// scheduler half of the substrate: Shutdown must be callable repeatedly —
// with live spawned services, with finished bodies' goroutines on their
// way out, and again after everything has stopped — without panicking or
// hanging. A rank that exits early shuts its runtime down while siblings
// are still mid-job, and teardown paths run once per rank per Run plus
// once more on defensive cleanup.
func TestShutdownIdempotent(t *testing.T) {
	var polls atomic.Int32
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "poller", 5*time.Microsecond, func() { polls.Add(1) })
		for i := 0; i < 8; i++ {
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) })
		}
		rt.TaskWait()
		rt.Shutdown()
		rt.Shutdown() // second call: bodies exited, spawn drained
		rt.Shutdown()
	})
	if polls.Load() == 0 {
		t.Fatal("poller never ran")
	}
	// A fresh runtime that never ran a task must also shut down cleanly
	// (no body goroutine was ever started).
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		rt.Shutdown()
		rt.Shutdown()
	})
}

// A service has no goroutine, but it is a task to the core scheduler: after
// every wait between passes it takes a fresh ticket and waits its turn behind tasks
// that became ready earlier, and ahead of those that became ready later.
func TestServiceReacquiresCoreInTicketOrder(t *testing.T) {
	var passes []time.Duration
	var cStart, end time.Duration
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "svc", 10*time.Microsecond, func() { passes = append(passes, clk.Now()) })
		rt.Submit(func(tk *Task) { tk.Compute(15 * time.Microsecond) }) // A: 0–15µs
		rt.Submit(func(tk *Task) { tk.Compute(15 * time.Microsecond) }) // B: 15–30µs
		clk.Sleep(12 * time.Microsecond)
		// The service woke at 10µs and queued behind B; C queues behind it.
		rt.Submit(func(tk *Task) {
			cStart = clk.Now()
			tk.Compute(15 * time.Microsecond)
		})
		rt.TaskWait()
		end = clk.Now()
		clk.Sleep(12 * time.Microsecond)
		rt.Shutdown()
	})
	// Pass 2 is the 40µs wake-up waiting for C to leave the core at 45µs.
	want := []time.Duration{0, 30 * time.Microsecond, 45 * time.Microsecond, 55 * time.Microsecond}
	if !slices.Equal(passes, want) {
		t.Fatalf("passes at %v, want %v", passes, want)
	}
	if cStart != 30*time.Microsecond || end != 45*time.Microsecond {
		t.Fatalf("task C ran %v–%v, want 30µs–45µs", cStart, end)
	}
}

// Grants follow tickets across ring growth: behind a held core, 40 waiters
// alternating tasks and continuations grow the waiter ring twice past its
// initial size around a head that five earlier grants moved off slot zero,
// and are still granted in ticket order.
func TestCoreGrantsFollowTicketsAcrossRingGrowth(t *testing.T) {
	var order []int
	held := false // a granted task holds the core until the test releases it
	cs := newCoreSched(1, func(tk *Task) bool {
		order = append(order, int(tk.id))
		held = true
		return false
	})
	for i := 0; i < 5; i++ {
		cs.acquire(coreWaiter{fn: func() {}})
		cs.release()
	}
	cs.acquire(coreWaiter{fn: func() {}}) // hold the core
	for i := 1; i <= 40; i++ {
		if i%2 == 1 {
			cs.acquire(coreWaiter{t: &Task{id: int64(i)}})
			continue
		}
		cs.acquire(coreWaiter{fn: func() {
			order = append(order, i)
			cs.release()
		}})
	}
	if len(order) != 0 {
		t.Fatalf("waiters %v were granted while the core was held", order)
	}
	for held = true; held; {
		held = false
		cs.release()
	}
	want := make([]int, 40)
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

func TestShutdownWaitsForServiceMidWait(t *testing.T) {
	var end time.Duration
	var st Stats
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		spawnLoop(rt, "svc", 100*time.Microsecond, nil)
		clk.Sleep(time.Microsecond)
		rt.Shutdown() // the service is asleep until 100µs and exits then
		end = clk.Now()
		st = rt.Stats()
	})
	if end != 100*time.Microsecond {
		t.Fatalf("Shutdown returned at %v, want 100µs", end)
	}
	if st.Spawned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
