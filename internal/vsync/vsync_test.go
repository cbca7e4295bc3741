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

// join runs fns as one launched group, so none can park and let virtual
// time advance before the rest exist, and returns when all have finished.
func join(c *vclock.VirtualClock, fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	c.Launch(len(fns))(func(i int) {
		defer wg.Done()
		fns[i]()
	})
	wg.Wait()
}

// countdown parks one waiter until n goroutines have called done.
type countdown struct {
	left atomic.Int32
	p    *vclock.Parker
}

func newCountdown(c *vclock.VirtualClock, n int) *countdown {
	d := &countdown{p: c.Parker()}
	d.left.Store(int32(n))
	return d
}

func (d *countdown) done() {
	if d.left.Add(-1) == 0 {
		d.p.Unpark()
	}
}

func (d *countdown) wait() { d.p.Park() }

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
	prodWG := newCountdown(c, 4)
	producers := make([]func(), 4)
	for p := 0; p < 4; p++ {
		p := p
		producers[p] = func() {
			defer prodWG.done()
			for i := p*25 + 1; i <= (p+1)*25; i++ {
				q.Push(i)
			}
		}
	}
	join(c, append(producers,
		func() {
			prodWG.wait()
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
		prodWG := newCountdown(c, producers)
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
				defer prodWG.done()
				for i := 0; i < items; i++ {
					c.Sleep(delays[p][i])
					q.Push([2]int{p, i})
				}
			})
		}
		fns = append(fns, func() {
			prodWG.wait()
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
