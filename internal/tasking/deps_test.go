package tasking

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vclock"
)

// edgeSet extracts the distinct (pred, succ) pairs currently recorded.
func edgeSet(tasks []*Task) map[[2]*Task]bool {
	es := make(map[[2]*Task]bool)
	for _, t := range tasks {
		for _, s := range t.succs {
			es[[2]*Task{t, s}] = true
		}
	}
	return es
}

func TestRegistryReadersShareWritersSerialize(t *testing.T) {
	reg := newDepRegistry()
	base := new(int)
	w1 := &Task{label: "w1"}
	r1 := &Task{label: "r1"}
	r2 := &Task{label: "r2"}
	w2 := &Task{label: "w2"}

	if n := reg.register(w1, Out(base, 0, 10)); n != 0 {
		t.Fatalf("first writer got %d preds, want 0", n)
	}
	if n := reg.register(r1, In(base, 0, 10)); n != 1 {
		t.Fatalf("reader after writer got %d preds, want 1", n)
	}
	if n := reg.register(r2, In(base, 0, 10)); n != 1 {
		t.Fatalf("second reader got %d preds, want 1 (readers are concurrent)", n)
	}
	n := reg.register(w2, Out(base, 0, 10))
	if n != 3 {
		t.Fatalf("writer after writer+2 readers got %d preds, want 3", n)
	}
	es := edgeSet([]*Task{w1, r1, r2, w2})
	for _, want := range [][2]*Task{{w1, r1}, {w1, r2}, {w1, w2}, {r1, w2}, {r2, w2}} {
		if !es[want] {
			t.Fatalf("missing edge %s->%s", want[0].label, want[1].label)
		}
	}
	if es[[2]*Task{r1, r2}] || es[[2]*Task{r2, r1}] {
		t.Fatal("readers must not depend on each other")
	}
}

func TestRegistryDisjointRangesIndependent(t *testing.T) {
	reg := newDepRegistry()
	base := new(int)
	a := &Task{label: "a"}
	b := &Task{label: "b"}
	reg.register(a, Out(base, 0, 10))
	if n := reg.register(b, Out(base, 10, 20)); n != 0 {
		t.Fatalf("disjoint writer got %d preds, want 0", n)
	}
}

func TestRegistryPartialOverlapSplits(t *testing.T) {
	reg := newDepRegistry()
	base := new(int)
	a := &Task{label: "a"}
	b := &Task{label: "b"}
	c := &Task{label: "c"}
	reg.register(a, Out(base, 0, 100))
	if n := reg.register(b, Out(base, 50, 150)); n == 0 {
		t.Fatal("overlapping writer must depend on prior writer")
	}
	// c reads [0,50): only a wrote there — must depend on a alone.
	n := reg.register(c, In(base, 0, 50))
	if n != 1 {
		t.Fatalf("c got %d preds, want 1", n)
	}
	es := edgeSet([]*Task{a, b})
	if !es[[2]*Task{a, c}] {
		t.Fatal("missing a->c edge")
	}
	if es[[2]*Task{b, c}] {
		t.Fatal("c must not depend on b (disjoint ranges)")
	}
}

func TestRegistryDistinctBasesIndependent(t *testing.T) {
	reg := newDepRegistry()
	b1, b2 := new(int), new(int)
	a := &Task{label: "a"}
	b := &Task{label: "b"}
	reg.register(a, Out(b1, 0, 10))
	if n := reg.register(b, InOut(b2, 0, 10)); n != 0 {
		t.Fatalf("different base got %d preds, want 0", n)
	}
}

func TestRegistrySelfEdgesSkipped(t *testing.T) {
	reg := newDepRegistry()
	base := new(int)
	a := &Task{label: "a"}
	reg.register(a, Out(base, 0, 10))
	if n := reg.register(a, In(base, 0, 10)); n != 0 {
		t.Fatalf("self-dependency created %d edges, want 0", n)
	}
}

func TestRegistryCompletedPredsSkipped(t *testing.T) {
	reg := newDepRegistry()
	base := new(int)
	a := &Task{label: "a", state: stateCompleted}
	b := &Task{label: "b"}
	reg.register(a, Out(base, 0, 10))
	a.state = stateCompleted
	if n := reg.register(b, In(base, 0, 10)); n != 0 {
		t.Fatalf("completed predecessor created %d edges, want 0", n)
	}
}

func TestRegistryEmptyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newDepRegistry().register(&Task{}, In(new(int), 5, 5))
}

// Property: the interval registry produces exactly the edges of a naive
// per-element dependency model, for random access sequences.
func TestQuickRegistryMatchesNaiveModel(t *testing.T) {
	const size = 64
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%24) + 2
		reg := newDepRegistry()
		base := new(int)

		// Naive model: per element, last writer and readers-since-write.
		ref := newSlotRef(size)
		naive := make(map[[2]*Task]bool)

		tasks := make([]*Task, k)
		for i := 0; i < k; i++ {
			tk := &Task{label: string(rune('A' + i))}
			tasks[i] = tk
			lo := rng.Intn(size)
			hi := lo + 1 + rng.Intn(size-lo)
			mode := AccessMode(rng.Intn(3))
			reg.register(tk, Dep{Mode: mode, Base: base, Lo: lo, Hi: hi})
			for p := range ref.register(tk, mode, lo, hi) {
				naive[[2]*Task{p, tk}] = true
			}
		}
		got := edgeSet(tasks)
		if len(got) != len(naive) {
			return false
		}
		for e := range naive {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: pred multiplicity is consistent — the number of edges recorded
// in succs lists equals the sum of preds counters.
func TestQuickRegistryEdgeCountConsistency(t *testing.T) {
	const size = 32
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%16) + 2
		reg := newDepRegistry()
		base := new(int)
		tasks := make([]*Task, k)
		totalPreds := 0
		for i := 0; i < k; i++ {
			tk := &Task{}
			tasks[i] = tk
			lo := rng.Intn(size)
			hi := lo + 1 + rng.Intn(size-lo)
			mode := AccessMode(rng.Intn(3))
			totalPreds += reg.register(tk, Dep{Mode: mode, Base: base, Lo: lo, Hi: hi})
		}
		totalSuccs := 0
		for _, tk := range tasks {
			totalSuccs += len(tk.succs)
		}
		return totalSuccs == totalPreds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletedReaderCollectableAfterWriter(t *testing.T) {
	// Once a later writer has registered on its region, a completed reader
	// is unreachable from the registry: the reader list's spare capacity
	// must not keep it (and its body's closure) alive.
	collected := make(chan struct{})
	var keep *Runtime
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		keep = rt
		x := new(int)
		func() {
			r := rt.Submit(func(*Task) {}, WithDeps(InVal(x)))
			runtime.SetFinalizer(r, func(*Task) { close(collected) })
		}()
		rt.TaskWait()
		rt.Submit(func(*Task) {}, WithDeps(OutVal(x)))
		rt.TaskWait()
	})
	defer runtime.KeepAlive(keep)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		//lint:ignore detlint host-side wait for the garbage collector's finalizer goroutine, not modelled time
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the completed reader is still reachable after a later writer registered")
}

// slotRef is the per-slot reference for the interval registry: every
// integer slot holds its last writer and the readers since.
type slotRef struct {
	writer  []*Task
	readers [][]*Task
}

func newSlotRef(size int) *slotRef {
	return &slotRef{writer: make([]*Task, size), readers: make([][]*Task, size)}
}

// register applies t's access to each slot of [lo, hi) and returns the
// distinct predecessors it gains, skipping t itself and completed tasks.
func (s *slotRef) register(t *Task, m AccessMode, lo, hi int) map[*Task]bool {
	preds := map[*Task]bool{}
	add := func(p *Task) {
		if p != nil && p != t && p.state != stateCompleted {
			preds[p] = true
		}
	}
	for e := lo; e < hi; e++ {
		add(s.writer[e])
		if m == AccessIn {
			s.readers[e] = append(s.readers[e], t)
			continue
		}
		for _, rd := range s.readers[e] {
			add(rd)
		}
		s.writer[e], s.readers[e] = t, nil
	}
	return preds
}

// Property: every registration links the new task behind exactly the
// predecessors of the per-slot reference, its return value counts the
// successor entries it appended, and the object's intervals stay sorted,
// disjoint and non-empty. Accesses mix random ranges, appends past the
// last interval, exact repeats of an earlier range, and predecessors that
// complete between registrations.
func TestQuickRegistryMatchesSlotReference(t *testing.T) {
	const size = 96
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := newDepRegistry()
		base := new(int)
		ref := newSlotRef(size)
		var tasks []*Task
		var ranges [][2]int
		end := 0
		for k := int(n%96) + 2; k > 0; k-- {
			var lo, hi int
			switch c := rng.Intn(4); {
			case c == 0 && end < size:
				lo, hi = end, end+1+rng.Intn(min(8, size-end))
			case c == 1 && len(ranges) > 0:
				r := ranges[rng.Intn(len(ranges))]
				lo, hi = r[0], r[1]
			default:
				lo = rng.Intn(size)
				hi = lo + 1 + rng.Intn(min(24, size-lo))
			}
			end = max(end, hi)
			ranges = append(ranges, [2]int{lo, hi})
			mode := AccessMode(rng.Intn(3))
			if len(tasks) > 0 && rng.Intn(5) == 0 {
				tasks[rng.Intn(len(tasks))].state = stateCompleted
			}
			tk := &Task{}
			want := ref.register(tk, mode, lo, hi)
			got := reg.register(tk, Dep{Mode: mode, Base: base, Lo: lo, Hi: hi})
			seen := map[*Task]bool{}
			appended := 0
			for _, p := range tasks {
				for _, s := range p.succs {
					if s == tk {
						seen[p] = true
						appended++
					}
				}
			}
			if appended != got || len(seen) != len(want) {
				return false
			}
			for p := range want {
				if !seen[p] {
					return false
				}
			}
			ivs := reg.objs[base].ivs
			for i, iv := range ivs {
				if iv.lo >= iv.hi || i > 0 && ivs[i-1].hi > iv.lo {
					return false
				}
			}
			tasks = append(tasks, tk)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
