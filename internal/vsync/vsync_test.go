package vsync

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

func join(c *vclock.VirtualClock, fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		fn := fn
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			fn()
		})
	}
	wg.Wait()
}

func TestMutexExcludes(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		m := NewMutex(c)
		var inside atomic.Int32
		var violations atomic.Int32
		var count int
		worker := func() {
			for i := 0; i < 200; i++ {
				m.Lock()
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				count++
				inside.Add(-1)
				m.Unlock()
			}
		}
		join(c, worker, worker, worker, worker)
		if violations.Load() != 0 {
			t.Fatalf("%d mutual exclusion violations", violations.Load())
		}
		if count != 800 {
			t.Fatalf("count = %d, want 800", count)
		}
	})
}

func TestMutexTryLock(t *testing.T) {
	c := vclock.NewVirtual()
	m := NewMutex(c)
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMutex(vclock.NewVirtual()).Unlock()
}

func TestMutexFIFOHandoffVirtual(t *testing.T) {
	// Under virtual time, waiters must be granted the lock in arrival order.
	c := vclock.NewVirtual()
	m := NewMutex(c)
	var order []int
	var fns []func()
	fns = append(fns, func() {
		m.Lock()
		//lint:ignore lockcross holding the lock across the sleep is the test: it queues all five waiters so their grant order is observable
		c.Sleep(10 * time.Millisecond) // let all waiters queue in id order
		m.Unlock()
	})
	for i := 1; i <= 5; i++ {
		i := i
		fns = append(fns, func() {
			c.Sleep(time.Duration(i) * time.Millisecond)
			m.Lock()
			order = append(order, i)
			m.Unlock()
		})
	}
	join(c, fns...)
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("grant order = %v, want 1..5", order)
		}
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		m := NewMutex(c)
		cond := NewCond(c, m)
		ready := 0
		var woken atomic.Int32
		waiter := func() {
			m.Lock()
			for ready == 0 {
				cond.Wait()
			}
			ready--
			woken.Add(1)
			m.Unlock()
		}
		join(c,
			waiter, waiter, waiter,
			func() {
				for i := 0; i < 3; i++ {
					c.Sleep(time.Millisecond)
					m.Lock()
					ready++
					cond.Signal()
					m.Unlock()
				}
			},
		)
		if woken.Load() != 3 {
			t.Fatalf("woken = %d, want 3", woken.Load())
		}
	})
}

func TestCondBroadcast(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		m := NewMutex(c)
		cond := NewCond(c, m)
		open := false
		var through atomic.Int32
		waiter := func() {
			m.Lock()
			for !open {
				cond.Wait()
			}
			m.Unlock()
			through.Add(1)
		}
		join(c,
			waiter, waiter, waiter, waiter,
			func() {
				c.Sleep(time.Millisecond)
				m.Lock()
				open = true
				cond.Broadcast()
				m.Unlock()
			},
		)
		if through.Load() != 4 {
			t.Fatalf("through = %d, want 4", through.Load())
		}
	})
}

func TestCondWaitTimeout(t *testing.T) {
	c := vclock.NewVirtual()
	m := NewMutex(c)
	cond := NewCond(c, m)
	var timedOut bool
	var at time.Duration
	join(c, func() {
		m.Lock()
		//lint:ignore condloop this test exercises the timeout path itself; no predicate exists to re-check
		timedOut = !cond.WaitTimeout(5 * time.Millisecond)
		at = c.Now()
		m.Unlock()
	})
	if !timedOut {
		t.Fatal("want timeout")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timed out at %v, want 5ms", at)
	}
	// After a timeout the waiter must no longer consume Signals.
	join(c, func() {
		m.Lock()
		cond.Signal() // must not panic or wake anything
		m.Unlock()
	})
}

func TestCondWaitTimeoutSignaled(t *testing.T) {
	c := vclock.NewVirtual()
	m := NewMutex(c)
	cond := NewCond(c, m)
	var woke bool
	join(c,
		func() {
			m.Lock()
			//lint:ignore condloop this test checks the wake-by-Signal return value; no predicate exists to re-check
			woke = cond.WaitTimeout(time.Hour)
			m.Unlock()
		},
		func() {
			c.Sleep(time.Millisecond)
			m.Lock()
			cond.Signal()
			m.Unlock()
		},
	)
	if !woke {
		t.Fatal("want signal, got timeout")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		s := NewSemaphore(c, 3)
		var inside, peak atomic.Int32
		worker := func() {
			for i := 0; i < 50; i++ {
				s.Acquire()
				n := inside.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inside.Add(-1)
				s.Release()
			}
		}
		join(c, worker, worker, worker, worker, worker, worker)
		if peak.Load() > 3 {
			t.Fatalf("peak concurrency %d exceeds semaphore limit 3", peak.Load())
		}
	})
}

func TestSemaphoreTryAcquire(t *testing.T) {
	c := vclock.NewVirtual()
	s := NewSemaphore(c, 1)
	if !s.TryAcquire() {
		t.Fatal("TryAcquire on free semaphore failed")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire on empty semaphore succeeded")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestWaitGroup(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		wg := NewWaitGroup(c)
		var done atomic.Int32
		wg.Add(3)
		join(c,
			func() { c.Sleep(time.Millisecond); done.Add(1); wg.Done() },
			func() { c.Sleep(2 * time.Millisecond); done.Add(1); wg.Done() },
			func() { done.Add(1); wg.Done() },
			func() {
				wg.Wait()
				if done.Load() != 3 {
					t.Errorf("Wait returned with %d done, want 3", done.Load())
				}
			},
		)
	})
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWaitGroup(vclock.NewVirtual()).Add(-1)
}

func TestResourceSerializes(t *testing.T) {
	// Three requests of 10ms each arriving together must finish at 10/20/30ms.
	c := vclock.NewVirtual()
	r := NewResource(c)
	var ends []time.Duration
	var mu sync.Mutex
	worker := func() {
		r.Use(10 * time.Millisecond)
		mu.Lock()
		ends = append(ends, c.Now())
		mu.Unlock()
	}
	join(c, worker, worker, worker)
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("total time %v, want 30ms", c.Now())
	}
	want := map[time.Duration]bool{10 * time.Millisecond: true, 20 * time.Millisecond: true, 30 * time.Millisecond: true}
	for _, e := range ends {
		if !want[e] {
			t.Fatalf("unexpected completion time %v (ends=%v)", e, ends)
		}
		delete(want, e)
	}
}

func TestResourceIdleGapNoCarryover(t *testing.T) {
	// After the resource drains, a later request must not queue behind history.
	c := vclock.NewVirtual()
	r := NewResource(c)
	join(c, func() {
		r.Use(5 * time.Millisecond)
		c.Sleep(20 * time.Millisecond)
		w := r.Use(5 * time.Millisecond)
		if w != 0 {
			t.Errorf("waited %v on idle resource, want 0", w)
		}
	})
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("total %v, want 30ms", c.Now())
	}
}

func TestResourceStats(t *testing.T) {
	c := vclock.NewVirtual()
	r := NewResource(c)
	worker := func() { r.Use(4 * time.Millisecond) }
	join(c, worker, worker)
	st := r.Stats()
	if st.Uses != 2 {
		t.Fatalf("Uses = %d, want 2", st.Uses)
	}
	if st.Busy != 8*time.Millisecond {
		t.Fatalf("Busy = %v, want 8ms", st.Busy)
	}
	if st.Waited != 4*time.Millisecond {
		t.Fatalf("Waited = %v, want 4ms (second request queues behind first)", st.Waited)
	}
	if st.MaxWait != 4*time.Millisecond {
		t.Fatalf("MaxWait = %v, want 4ms", st.MaxWait)
	}
}

func TestResourceReserve(t *testing.T) {
	c := vclock.NewVirtual()
	r := NewResource(c)
	join(c, func() {
		s1, d1 := r.Reserve(3 * time.Millisecond)
		s2, d2 := r.Reserve(5 * time.Millisecond)
		if s1 != 0 || d1 != 3*time.Millisecond {
			t.Errorf("first reserve [%v,%v], want [0,3ms]", s1, d1)
		}
		if s2 != 3*time.Millisecond || d2 != 8*time.Millisecond {
			t.Errorf("second reserve [%v,%v], want [3ms,8ms]", s2, d2)
		}
	})
	if c.Now() != 0 {
		t.Fatalf("Reserve must not sleep; Now = %v", c.Now())
	}
}

// Property: a Resource's total busy time equals the sum of holds, and the
// final completion time of back-to-back requests issued at t=0 equals that
// sum (perfect FIFO, no gaps).
func TestQuickResourceSumProperty(t *testing.T) {
	f := func(holds []uint8) bool {
		if len(holds) == 0 {
			return true
		}
		if len(holds) > 32 {
			holds = holds[:32]
		}
		c := vclock.NewVirtual()
		r := NewResource(c)
		var sum time.Duration
		fns := make([]func(), len(holds))
		for i, h := range holds {
			d := time.Duration(h) * time.Microsecond
			sum += d
			fns[i] = func() { r.Use(d) }
		}
		join(c, fns...)
		return c.Now() == sum && r.Stats().Busy == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		c := vclock.NewVirtual()
		q := NewQueue[int](c)
		const n = 500
		var got []int
		join(c,
			func() {
				for i := 0; i < n; i++ {
					q.Push(i)
				}
				q.Close()
			},
			func() {
				for {
					v, ok := q.Pop()
					if !ok {
						return
					}
					got = append(got, v)
				}
			},
		)
		if len(got) != n {
			t.Fatalf("received %d items, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("got[%d] = %d, want %d", i, v, i)
			}
		}
	})
}

func TestQueueMultiProducer(t *testing.T) {
	c := vclock.NewVirtual()
	q := NewQueue[int](c)
	var sum, want int
	for i := 1; i <= 100; i++ {
		want += i
	}
	prodWG := NewWaitGroup(c)
	prodWG.Add(4)
	producers := make([]func(), 4)
	for p := 0; p < 4; p++ {
		p := p
		producers[p] = func() {
			defer prodWG.Done()
			for i := p*25 + 1; i <= (p+1)*25; i++ {
				q.Push(i)
			}
		}
	}
	join(c, append(producers,
		func() {
			prodWG.Wait()
			q.Close()
		},
		func() {
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				sum += v
			}
		})...)
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestQueueCloseWakesConsumer(t *testing.T) {
	c := vclock.NewVirtual()
	q := NewQueue[string](c)
	var ok bool = true
	join(c,
		func() { _, ok = q.Pop() },
		func() { c.Sleep(time.Millisecond); q.Close() },
	)
	if ok {
		t.Fatal("Pop on closed queue must report ok=false")
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q := NewQueue[int](vclock.NewVirtual())
	q.Close()
	q.Push(1)
}

// Property: under random interleavings of producers, the consumer sees each
// producer's items in that producer's order (per-producer FIFO).
func TestQuickQueuePerProducerOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := vclock.NewVirtual()
		q := NewQueue[[2]int](c) // [producer, seq]
		const producers, items = 3, 50
		prodWG := NewWaitGroup(c)
		prodWG.Add(producers)
		fns := make([]func(), 0, producers+2)
		delays := make([][]time.Duration, producers)
		for p := 0; p < producers; p++ {
			delays[p] = make([]time.Duration, items)
			for i := range delays[p] {
				delays[p][i] = time.Duration(rng.Intn(20)) * time.Microsecond
			}
		}
		for p := 0; p < producers; p++ {
			p := p
			fns = append(fns, func() {
				defer prodWG.Done()
				for i := 0; i < items; i++ {
					c.Sleep(delays[p][i])
					q.Push([2]int{p, i})
				}
			})
		}
		fns = append(fns, func() {
			prodWG.Wait()
			q.Close()
		})
		lastSeq := [producers]int{-1, -1, -1}
		okOrder := true
		fns = append(fns, func() {
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				if v[1] != lastSeq[v[0]]+1 {
					okOrder = false
				}
				lastSeq[v[0]] = v[1]
			}
		})
		join(c, fns...)
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMutexUncontended(b *testing.B) {
	c := vclock.NewVirtual()
	m := NewMutex(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

func BenchmarkResourceUseVirtual(b *testing.B) {
	c := vclock.NewVirtual()
	r := NewResource(c)
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			r.Use(time.Microsecond)
		}
	})
	wg.Wait()
}
