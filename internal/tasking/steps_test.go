package tasking

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// genTask is one task of a generated graph: its dependencies, and the cost
// of each of its steps. A goroutine body runs step i as Compute(costs[i])
// followed by its kernel; a step body charges costs[i] with Then and runs
// the kernel in the step Then names.
type genTask struct {
	deps  []Dep
	costs []time.Duration
}

// genGraph draws n tasks over the objects objs. Each task has one to three
// dependencies and one to three steps. With zero set every step is free;
// otherwise some steps are free (a Then(0) in the chain) and the others
// cost distinct durations, at least one per task.
func genGraph(r *rand.Rand, objs []int, n int, zero bool) []genTask {
	modes := []func(any, int, int) Dep{In, Out, InOut}
	g := make([]genTask, n)
	costIdx := 0
	for i := range g {
		for range 1 + r.Intn(3) {
			o := r.Intn(len(objs))
			g[i].deps = append(g[i].deps, modes[r.Intn(len(modes))](&objs[o], 0, 1))
		}
		steps := 1 + r.Intn(3)
		paid := r.Intn(steps) // the step that must cost something
		for s := range steps {
			var c time.Duration
			if !zero && (s == paid || r.Intn(2) == 0) {
				costIdx++
				c = time.Duration(1000 + 17*costIdx + r.Intn(16))
			}
			g[i].costs = append(g[i].costs, c)
		}
	}
	return g
}

// graphRun is what one execution of a graph observed: per task, the
// instant its body started and the instant each of its steps ended, and
// the trace.
type graphRun struct {
	instants [][]time.Duration
	events   []obs.Event
}

// runGraph executes g on a fresh runtime with goroutine bodies or, with
// steps set, with step bodies. The rank main first occupies every core
// with a blocker (a goroutine body, 1µs of compute, one blocker per
// nanosecond) and submits the graph behind them, so the graph's tickets are
// drawn in program order before any of it runs.
func runGraph(g []genTask, cores int, overhead time.Duration, steps bool) graphRun {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: cores, DispatchOverhead: overhead})
	rec := &obs.Collector{Tracer: obs.NewTracer(1)}
	rt.SetRecorder(rec, 0)
	out := graphRun{instants: make([][]time.Duration, len(g))}
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		for range cores {
			rt.Submit(func(tk *Task) { tk.Compute(time.Microsecond) }, WithLabel("blocker"))
			clk.Sleep(1)
		}
		for i, gt := range g {
			at := &out.instants[i]
			label := WithLabel(fmt.Sprintf("t%d", i))
			if !steps {
				rt.Submit(func(tk *Task) {
					*at = append(*at, clk.Now())
					for _, c := range gt.costs {
						tk.Compute(c)
						*at = append(*at, clk.Now())
					}
				}, WithDeps(gt.deps...), label)
				continue
			}
			var step func(tk *Task, s int)
			step = func(tk *Task, s int) {
				tk.Then(gt.costs[s], func() {
					*at = append(*at, clk.Now())
					if s+1 < len(gt.costs) {
						step(tk, s+1)
					}
				})
			}
			rt.Submit(func(tk *Task) {
				*at = append(*at, clk.Now())
				step(tk, 0)
			}, WithDeps(gt.deps...), label, NonBlocking())
		}
		rt.TaskWait()
		rt.Shutdown()
	})
	<-done
	out.events = rec.Tracer.Events()
	return out
}

// TestStepBodiesMatchGoroutineBodies runs generated task graphs twice, with
// goroutine bodies (Compute plus kernel) and as step tasks (Then chains),
// and requires the same instants for every task's start and steps, to the
// nanosecond, and the same trace. It covers 1–4 cores, with and without
// dispatch overhead, zero and nonzero costs. One combination has no
// deterministic reference and is left out: without dispatch overhead on
// several cores, goroutine bodies of zero cost may start and finish on
// goroutines that run at once, and then their successors' tickets and
// their timeline lanes follow the host scheduler.
func TestStepBodiesMatchGoroutineBodies(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for graph := range 6 {
		objs := make([]int, 3+r.Intn(4))
		for _, zero := range []bool{false, true} {
			g := genGraph(r, objs, 10+r.Intn(20), zero)
			for cores := 1; cores <= 4; cores++ {
				for _, overhead := range []time.Duration{0, 300} {
					if zero && overhead == 0 && cores > 1 {
						continue
					}
					name := fmt.Sprintf("graph%d/zero=%v/cores=%d/overhead=%v", graph, zero, cores, overhead)
					t.Run(name, func(t *testing.T) {
						want := runGraph(g, cores, overhead, false)
						got := runGraph(g, cores, overhead, true)
						for i := range g {
							if !slices.Equal(got.instants[i], want.instants[i]) {
								t.Errorf("task %d (costs %v): step body ran at %v, goroutine body at %v",
									i, g[i].costs, got.instants[i], want.instants[i])
							}
						}
						if !slices.Equal(got.events, want.events) {
							t.Errorf("traces differ: %d step-body events, %d goroutine-body events",
								len(got.events), len(want.events))
						}
					})
				}
			}
		}
	}
}
