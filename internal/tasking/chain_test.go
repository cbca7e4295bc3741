package tasking

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

var updateChain = flag.Bool("update-chain", false, "rewrite testdata/submit_chain.txt from this build")

// chainCase is one generated submission program: the runtime's cores and
// overheads and the seed that draws the program.
type chainCase struct {
	cores            int
	submit, dispatch time.Duration
	seed             int64
}

// chainCases cover one and four cores, submission overhead zero and not,
// with and without dispatch overhead. Step costs, onready delays and the
// overheads are multiples of 75 ns, so completions, guard releases and
// dispatches fall due at the same instants.
var chainCases = []chainCase{
	{1, 0, 0, 1}, {4, 0, 150, 2},
	{1, 150, 0, 3}, {1, 150, 150, 4}, {1, 75, 300, 5},
	{4, 150, 0, 6}, {4, 150, 150, 7}, {4, 300, 75, 8}, {4, 75, 150, 9},
}

// runChain runs one generated program as a rank main and returns, per
// task, its id, label, create, ready, start, duration, lane and complete
// instants, then every dependency-release flow endpoint, all read off the
// runtime's trace.
//
// The main submits 120 tasks over three objects of four slots each, with
// one or two dependencies apiece; some calls name a slot, some the whole
// object. A fifth of the tasks have an onready callback that registers one
// event and arms a clock event fulfilling it 0, 150 or 300 ns later. Most
// bodies are step bodies of one or two steps of 0 to 300 ns; with
// dispatch overhead a fifth are goroutine bodies that compute for a
// distinct microsecond-scale time. After a submission the main throttles
// to at most two live tasks one time in twelve, or waits for every task
// one time in twenty-five, and then sleeps 1 ns; between a Submit and
// its next runtime call it makes no clock-visible call.
func runChain(c chainCase) string {
	r := rand.New(rand.NewSource(c.seed))
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: c.cores, SubmitOverhead: c.submit, DispatchOverhead: c.dispatch})
	rec := &obs.Collector{Tracer: obs.NewTracer(1)}
	rt.SetRecorder(rec, 0)
	objs := new([3][4]int)
	modes := []func(any, int, int) Dep{In, Out, InOut}
	costs := []time.Duration{0, 75, 150, 300}
	delays := []time.Duration{0, 150, 300}
	var end time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := range 120 {
			var deps []Dep
			for range 1 + r.Intn(2) {
				o := &objs[r.Intn(len(objs))]
				lo, hi := 0, 4
				if r.Intn(2) == 0 {
					lo = r.Intn(4)
					hi = lo + 1
				}
				deps = append(deps, modes[r.Intn(len(modes))](o, lo, hi))
			}
			opts := []Option{WithDeps(deps...), WithLabel(fmt.Sprintf("t%d", i))}
			if r.Intn(5) == 0 {
				d := delays[r.Intn(len(delays))]
				ev := new(vclock.Event)
				opts = append(opts, WithOnReady(func(tk *Task) {
					ec := tk.Events()
					ec.Increase(1)
					clk.InitEvent(ev, func() { ec.Decrease(1) })
					ev.After(d)
				}))
			}
			var body Body
			if c.dispatch > 0 && r.Intn(5) == 0 {
				d := time.Duration(1000 + 17*i + r.Intn(16))
				body = func(tk *Task) { tk.Compute(d) }
			} else {
				first, second := costs[r.Intn(len(costs))], costs[r.Intn(len(costs))]
				two := r.Intn(2) == 0
				body = func(tk *Task) {
					tk.Then(first, func() {
						if two {
							tk.Then(second, func() {})
						}
					})
				}
				opts = append(opts, NonBlocking())
			}
			rt.Submit(body, opts...)
			if n := r.Intn(100); n < 12 {
				if n < 8 {
					rt.Throttle(r.Intn(3))
				} else {
					rt.TaskWait()
				}
				// A main woken by a completion runs at once with the rest
				// of that completion's work, so its next Submit would draw
				// keys at that instant in host order (ROADMAP item 1); one
				// nanosecond later it runs alone.
				clk.Sleep(1)
			}
		}
		rt.TaskWait()
		end = clk.Now()
		rt.Shutdown()
	})
	wg.Wait()

	type taskRec struct {
		label                                 string
		create, ready, start, dur, done, lane int64
	}
	tasks := map[int64]*taskRec{}
	of := func(id int64) *taskRec {
		if tasks[id] == nil {
			tasks[id] = &taskRec{create: -1, ready: -1, start: -1, done: -1, lane: -1}
		}
		return tasks[id]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case cores=%d submit=%v dispatch=%v seed=%d end=%v\n", c.cores, c.submit, c.dispatch, c.seed, end)
	var flows []string
	for _, e := range rec.Tracer.Events() {
		switch {
		case e.Name == "task:create":
			of(e.Arg).create = int64(e.Ts)
		case e.Name == "task:ready":
			of(e.Arg).ready = int64(e.Ts)
		case e.Name == "task:complete":
			of(e.Arg).done = int64(e.Ts)
		case e.Name == "flow:task":
			flows = append(flows, fmt.Sprintf("flow %c %d %x\n", e.Ph, e.Ts, uint64(e.Flow)))
		case e.Ph == 'X':
			t := of(e.Arg)
			t.label, t.start, t.dur, t.lane = e.Name, int64(e.Ts), int64(e.Dur), int64(e.Track)
		}
	}
	for id := int64(1); id <= int64(len(tasks)); id++ {
		t := tasks[id]
		fmt.Fprintf(&b, "%d %s %d %d %d %d %d %d\n", id, t.label, t.create, t.ready, t.start, t.dur, t.lane, t.done)
	}
	b.WriteString(strings.Join(flows, ""))
	return b.String()
}

// TestSubmitChainMatchesSleep runs generated submission programs and
// requires every task's create, ready, start and complete instants, its
// timeline lane and every dependency-release flow edge to be those of the
// testdata, which was generated while Submit charged its overhead by
// sleeping the submitter: a task registered at Submit behind its creation
// guard must become ready when the sleeping submitter would have created
// it, with the release edge it would have had.
func TestSubmitChainMatchesSleep(t *testing.T) {
	path := filepath.Join("testdata", "submit_chain.txt")
	var got strings.Builder
	for _, c := range chainCases {
		got.WriteString(runChain(c))
	}
	if *updateChain {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(g), len(w))
	}
}

// TestSubmitBurstAllocs is an allocation gate of scripts/ci.sh: bursts of
// Submits, each burst followed by a TaskWait, allocate the task records and
// the bodies' closures and nothing else once the runtime's buffers have
// grown — no parker per wait (the creation-chain wait and the TaskWait take
// pooled ones) and no per-Submit copy of the options or the dependencies,
// whether the list is a reused slice or written inline through a DepList.
func TestSubmitBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	const bursts, n = 50, 20
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 2, SubmitOverhead: 150, DispatchOverhead: 50})
	slots, keys := new([n]int), new([n]int)
	deps := make([]Dep, 1) // reused across Submits, as WithDeps allows
	var list DepList
	var sum int
	burst := func(inline bool) {
		for k := range n {
			body := func(tk *Task) {
				sum += k // a closure per body, as the apps' bodies are
				tk.Then(75, func() {})
			}
			if inline {
				// No edge: each slot's last writer has completed.
				rt.Submit(body, list.With(Out(keys, k, k+1), InOut(slots, k, k+1)),
					WithLabel("burst"), NonBlocking())
				continue
			}
			deps[0] = InOut(slots, k, k+1) // no edge: the slot's last writer has completed
			rt.Submit(body, WithDeps(deps...), WithLabel("burst"), NonBlocking())
		}
		rt.TaskWait()
	}
	for _, inline := range []bool{false, true} {
		var allocs uint64
		var wg sync.WaitGroup
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			for range 3 {
				burst(inline) // grows the registry, the chain, the streams and the core ring
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range bursts {
				burst(inline)
			}
			runtime.ReadMemStats(&after)
			allocs = after.Mallocs - before.Mallocs
		})
		wg.Wait()
		// Two per task: its record and its body's closure. The slack of half
		// an allocation per burst covers the pools' refills after a GC; one
		// parker per wait alone would cost three per wait, and an inline
		// WithDeps list one per task.
		budget := uint64(bursts*n*2 + bursts/2)
		t.Logf("inline list %v: %d bursts of %d Submits + TaskWait: %d allocations (budget %d)",
			inline, bursts, n, allocs, budget)
		if allocs > budget {
			t.Fatalf("inline list %v: %d allocations for %d bursts of %d Submits, budget %d",
				inline, allocs, bursts, n, budget)
		}
	}
}
