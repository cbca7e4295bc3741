package tasking

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/vclock"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in.
var raceEnabled bool

// PendingTaskBudget is the committed ceiling, in heap bytes, of what one
// pending task with five dependencies keeps alive: its Task record, its
// entries in the registry's reader lists and its predecessor's successor
// list (TestPendingTaskFootprint). It measures 199 B with Go 1.24 on
// linux/amd64 — the 144-byte record plus six list entries — and the budget
// is 1.2× that: a task that keeps its five-entry dependency list (+208 B)
// or a record past its size class fails it.
const PendingTaskBudget = 240

// TestPendingTaskFootprint is the memory gate of scripts/ci.sh: the heap
// bytes retained per pending task, measured as the HeapAlloc delta after a
// GC while one gate task holds 20k followers back, must stay within
// PendingTaskBudget.
func TestPendingTaskFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	const followers = 20000
	var per float64
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		gate := new(int)
		var held *EventCounter
		rt.Submit(func(*Task) {}, WithDeps(OutVal(gate)),
			WithOnReady(func(tk *Task) {
				held = tk.Events()
				held.Increase(1)
			}))
		shared := new([4]int)
		before := liveHeap()
		for i := 0; i < followers; i++ {
			rt.Submit(func(*Task) {}, WithDeps(
				InVal(gate),
				In(shared, 0, 1), In(shared, 1, 2), In(shared, 2, 3), In(shared, 3, 4)),
				WithLabel("follower"))
		}
		per = float64(liveHeap()-before) / followers
		held.Decrease(1)
		rt.TaskWait()
	})
	t.Logf("pending task: %.0f B retained (budget %d B)", per, PendingTaskBudget)
	if per > PendingTaskBudget {
		t.Fatalf("a pending task retains %.0f B, budget is %d B", per, PendingTaskBudget)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestTaskRecordFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n > 144 {
		t.Fatalf("Task is %d B, want at most 144 (its allocation size class)", n)
	}
}

// ivShape is one registry interval reduced to what registration order
// changes: its range, whether it has a writer and how many readers.
type ivShape struct {
	lo, hi  int
	writer  bool
	readers int
}

func shapeOf(rt *Runtime, base any) []ivShape {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []ivShape
	for _, iv := range rt.reg.objs[base].ivs {
		out = append(out, ivShape{iv.lo, iv.hi, iv.writer != nil, len(iv.readers)})
	}
	return out
}

func TestSeveralWithDepsRegisterInArgumentOrder(t *testing.T) {
	// One task reads [0,10), writes [5,15) and reads [12,20) of an object.
	// The registry's intervals end in a different shape for another order,
	// so the shape shows the order Submit registered in.
	shape := func(opts func(base *int) []Option) (s []ivShape) {
		run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
			base := new(int)
			rt.Submit(func(*Task) {}, opts(base)...)
			s = shapeOf(rt, base)
			rt.TaskWait()
		})
		return s
	}
	one := shape(func(b *int) []Option {
		return []Option{WithDeps(In(b, 0, 10), Out(b, 5, 15), In(b, 12, 20))}
	})
	split := shape(func(b *int) []Option {
		return []Option{WithDeps(In(b, 0, 10)), WithLabel("split"), WithDeps(Out(b, 5, 15), In(b, 12, 20))}
	})
	reversed := shape(func(b *int) []Option {
		return []Option{WithDeps(Out(b, 5, 15), In(b, 12, 20)), WithDeps(In(b, 0, 10))}
	})
	if !slices.Equal(split, one) {
		t.Fatalf("two WithDeps registered as %v, one WithDeps of the same list as %v", split, one)
	}
	if slices.Equal(reversed, one) {
		t.Fatalf("the reversed order gives the same shape %v: the test cannot tell orders apart", one)
	}
}

func TestWithDepsBufferReusableAfterSubmit(t *testing.T) {
	// Submit keeps no reference to the slice: rewriting it once Submit
	// has returned, as the applications do for their next task, leaves the
	// registered graph as it was.
	var xAt, yAt time.Duration
	run(2, func(clk *vclock.VirtualClock, rt *Runtime) {
		x, y := new(int), new(int)
		buf := []Dep{OutVal(x)}
		rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) }, WithDeps(buf...))
		buf[0] = OutVal(y)
		rt.Submit(func(*Task) { xAt = clk.Now() }, WithDeps(InVal(x)))
		rt.Submit(func(*Task) { yAt = clk.Now() }, WithDeps(InVal(y)))
		rt.TaskWait()
	})
	if xAt != time.Microsecond || yAt != 0 {
		t.Fatalf("reader of x ran at %v (want 1µs, after the writer), reader of y at %v (want 0: y was never written)", xAt, yAt)
	}
}

func TestLastLabelAndOnReadyWin(t *testing.T) {
	var ran []string
	run(1, func(clk *vclock.VirtualClock, rt *Runtime) {
		on := func(name string) Option {
			return WithOnReady(func(*Task) { ran = append(ran, name) })
		}
		a := rt.Submit(func(*Task) {}, WithLabel("first"), on("first"), WithLabel("last"), on("last"))
		b := rt.Submit(func(*Task) {}, WithLabel("first"), on("first"), WithLabel(""), WithOnReady(nil))
		rt.TaskWait()
		if a.label != "last" || b.label != "" {
			t.Errorf("labels %q and %q, want %q and %q", a.label, b.label, "last", "")
		}
	})
	if !slices.Equal(ran, []string{"last"}) {
		t.Fatalf("onready callbacks run: %v, want only [last]", ran)
	}
}
