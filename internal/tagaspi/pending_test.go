package tagaspi

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPendingDrain(t *testing.T) {
	var q pendingQueue[int]
	for i := 0; i < 10; i++ {
		q.push(i)
	}
	if n := q.n.Load(); n != 10 {
		t.Fatalf("staged count = %d", n)
	}
	got := q.drain(nil)
	if len(got) != 10 {
		t.Fatalf("drained %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
	if q.n.Load() != 0 {
		t.Fatal("queue not emptied")
	}
	// drain appends to the private list.
	q.push(100)
	got = q.drain(got)
	if len(got) != 11 || got[10] != 100 {
		t.Fatalf("append-drain got %v", got)
	}
}

func TestPendingConcurrentProducers(t *testing.T) {
	var q pendingQueue[int]
	var wg sync.WaitGroup
	const producers, items = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				q.push(i)
			}
		}()
	}
	var got []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < producers*items {
			got = q.drain(got)
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
		var q pendingQueue[int]
		for _, v := range vals {
			q.push(v)
		}
		got := q.drain(nil)
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
