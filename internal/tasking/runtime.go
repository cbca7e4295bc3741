// Package tasking implements the task-based programming model of the paper:
// an OmpSs-2-style runtime with region data dependencies, the task external
// events API, the onready clause (§V-A), timed yields (wait_for_us, §V-B)
// and spawned service tasks (nanos6_spawn_function).
//
// Tasks declare in/out/inout dependencies over ranges of application
// objects; the runtime derives the execution order from those regions,
// giving the data-flow execution the paper's hybrid variants rely on.
// A task's completion — and therefore the release of its dependencies —
// can be delayed past the end of its body by external events, which is the
// hook the task-aware communication libraries (packages tampi and tagaspi)
// use to bind in-flight communication operations to tasks.
//
// Each simulated rank owns one Runtime, and its rank main is the runtime's
// one submitter. Submit returns before the task's creation cost
// (Config.SubmitOverhead) has elapsed: the task is registered at once
// behind a creation guard, which a chain of clock events releases when a
// main paying each cost in turn would have created it, and the main's
// next runtime call (Throttle, TaskWait, Shutdown or Now) waits until the
// chain has run dry. The main parks once per wait, not once per task.
//
// A runtime has one core slot per core. A ready task takes a slot in
// ticket order, pays the dispatch overhead, and runs its body, holding the
// slot until the body is done. A body comes in one of two kinds:
//
//   - A goroutine body (the default) runs on a goroutine of its own and may
//     block: Compute, a TAMPI Iwait's MPI call, a blocking GASPI post.
//   - A step body (Submit with NonBlocking) never blocks. It runs on the
//     goroutine or clock callback that started it, spends modelled time
//     only through Task.Then, and continues in the step Then names, on a
//     clock callback once that time has passed.
//
// The task-aware libraries' polling services (Service, service.go) are
// spawned service tasks: like step bodies they take core slots and run as
// steps on clock callback events, and they yield their slot in wait_for_us
// between passes. A service whose passes would find nothing goes dormant
// instead: it skips them, drawing no timer and taking no core, until an
// input that could change a pass wakes it — its library's (Service.Wake),
// a task's core ticket, or Shutdown — and then re-enters its polling grid
// exactly where the skipped passes had got to.
package tasking

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Config parameterises a Runtime.
type Config struct {
	// Cores is the number of worker slots (cores of the rank).
	Cores int
	// SubmitOverhead is modelled time charged to the submitter per task
	// creation (dependency registration cost). Zero under the ideal
	// profile; nonzero values reproduce the tasking overheads the paper
	// observes with small block sizes (Figs. 10 and 12). A Submit returns
	// before its overhead has elapsed, and the submitter's next runtime
	// call waits for it (Submit).
	SubmitOverhead time.Duration
	// DispatchOverhead is modelled time charged on a core before each
	// task body runs (scheduling cost).
	DispatchOverhead time.Duration
}

// Stats counts runtime activity.
type Stats struct {
	Submitted int64 // tasks submitted (excluding spawned services)
	Completed int64 // submitted tasks fully completed
	Spawned   int64 // service tasks spawned

	// SkippedPasses counts the polling passes dormant services skipped
	// and booked when they woke (Service.rouse); they are among their
	// passes too.
	SkippedPasses int64
	// UndecidedWakes counts the wakes of dormant services where the clock
	// could not order the step the service re-entered at: whether a step
	// due at the wake had already run, against a resuming timer drawn at
	// its draw instant (Service.pending), or where among the timers due
	// with it to place it (vclock.Event.AtDrawn). Ranks settle what they
	// can; a stopping runtime's exit step is not counted.
	UndecidedWakes int64
}

// Runtime is a per-rank tasking runtime.
type Runtime struct {
	clk   *vclock.VirtualClock
	cfg   Config
	cores *coreSched
	// starts holds granted tasks paying DispatchOverhead, and steps the
	// step tasks charging a Then; both are pushed only under cores.mu.
	starts, steps vclock.Stream[*Task]
	// running counts started task bodies and services until their last
	// step has run; Shutdown waits for it.
	running sync.WaitGroup

	rec   *obs.Collector // nil: uninstrumented
	rank  int            // rank identity for trace events
	lanes laneAlloc      // timeline rows for concurrently running bodies

	mu        sync.Mutex
	reg       *depRegistry
	live      int              // incomplete regular tasks
	spawnLive int              // incomplete spawned service tasks
	stopping  atomic.Bool      // set under mu, read per pass without it
	seq       int64            // task ids for trace correlation
	thWaiters []throttleWaiter // Throttle and TaskWait: woken when live falls to max
	sdWaiters []*vclock.Parker // Shutdown: woken when spawnLive hits 0
	stats     Stats

	// The creation chain (Submit): the submitted tasks whose creation
	// guard is still held, linked through their pre.t (Task.pre) in
	// submission order from chainHead to chainTail; the event that
	// creates the head, armed or running exactly while chainBusy is set;
	// and the submitter parked until the chain has run dry (waitCreated).
	// All guarded by mu.
	chainHead, chainTail *Task
	chainBusy            bool
	submitter            *vclock.Parker
	creation             vclock.Event

	skipped, undecided atomic.Int64 // Stats.SkippedPasses and UndecidedWakes
}

type throttleWaiter struct {
	p   *vclock.Parker
	max int
}

// New builds a runtime with the given core count and overheads.
func New(clk *vclock.VirtualClock, cfg Config) *Runtime {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("tasking: invalid core count %d", cfg.Cores))
	}
	rt := &Runtime{clk: clk, cfg: cfg, reg: newDepRegistry()}
	rt.cores = newCoreSched(cfg.Cores, rt.granted)
	vclock.InitStream(clk, &rt.starts, rt.start)
	vclock.InitStream(clk, &rt.steps, rt.resume)
	clk.InitEvent(&rt.creation, rt.create)
	return rt
}

// SetRecorder installs the observability recorder and the runtime's rank
// identity for trace events and Snapshot, before the first Submit or
// Service.Start; a nil recorder (the default) keeps the runtime
// uninstrumented.
func (rt *Runtime) SetRecorder(rec *obs.Collector, rank int) {
	rt.rec = rec
	rt.rank = rank
}

// Option customises one task: its region dependencies, its label, its
// onready callback or its body's kind. It is plain data, read once by
// Submit.
type Option struct {
	deps    []Dep
	label   string
	onready func(*Task)
	kind    optionKind
}

type optionKind uint8

const (
	optDeps optionKind = iota
	optLabel
	optOnReady
	optNonBlocking
)

// WithDeps attaches region dependencies. Submit registers them before it
// returns and keeps no reference to deps, so the caller may reuse the
// backing array for the next task. Several WithDeps options register in
// argument order.
func WithDeps(deps ...Dep) Option { return Option{kind: optDeps, deps: deps} }

// DepList is a dependency list that a submitter reuses from task to task.
// Submit stores a task's label and onready callback, so everything its
// options point at escapes: an inline WithDeps(In(..), Out(..)) list is a
// heap allocation per Submit. l.With copies the same inline list into l's
// backing array instead, which the next With overwrites: Submit keeps no
// reference to a list. One Submit takes at most one With of a given list.
type DepList []Dep

// With sets the list to deps and attaches it (WithDeps).
func (l *DepList) With(deps ...Dep) Option {
	*l = append((*l)[:0], deps...)
	return WithDeps(*l...)
}

// WithLabel attaches a diagnostic label. If several are given, the last
// wins.
func WithLabel(label string) Option { return Option{kind: optLabel, label: label} }

// WithOnReady attaches an onready callback (§V-A): it runs exactly once,
// after the task's dependencies are satisfied and before its body, outside
// any task context. It may register events on the task (via Events()) that
// delay the body's execution until they are fulfilled. If several are
// given, the last wins.
func WithOnReady(cb func(*Task)) Option { return Option{kind: optOnReady, onready: cb} }

// NonBlocking declares that the body never blocks: it runs as a chain of
// steps with no goroutine of its own. The body is the first step; it runs
// on whichever goroutine or clock callback starts the task, once the task
// holds a core and has paid the dispatch overhead. A step spends modelled
// time only through Task.Then, which must be its last call and names the
// next step; the body is done after the first step that calls no Then. A
// step must not Compute, Sleep, Park, use a vsync.Resource, make an MPI
// call or a blocking GASPI post (tagalint's taskctx analyzer flags these);
// the TAGASPI operations detect a step task and post without blocking.
func NonBlocking() Option { return Option{kind: optNonBlocking} }

// Submit creates a task and registers its dependencies in program order.
// It returns the task handle; the task runs asynchronously once its
// dependencies are satisfied and a core is free.
//
// A runtime has one submitter, its rank main: like OmpSs-2, the sequential
// submission order defines the data-flow semantics, so Submit must not be
// called from several goroutines, nor from task bodies or callbacks.
//
// Submit does not wait for the creation cost (Config.SubmitOverhead) to
// elapse. It registers the task at once behind a creation guard, one extra
// predecessor, and queues it on the runtime's creation chain: one clock
// event per task, each SubmitOverhead after the one before, which releases
// the guard when a submitter that paid each overhead in turn would have
// created the task. The submitter's next runtime call (Throttle, TaskWait,
// Shutdown or Now) waits until the chain has run dry; between a
// Submit and that call it must make no call that reads or spends modelled
// time.
func (rt *Runtime) Submit(body Body, opts ...Option) *Task {
	t := &Task{rt: rt, body: body}
	t.pre = EventCounter{t: t, pre: true}
	t.comp = EventCounter{t: t, n: 1} // the body-execution pseudo-event
	guarded := rt.cfg.SubmitOverhead > 0
	if guarded {
		t.preds = 1   // the creation guard
		t.pre.t = nil // the chain's link until create
	}
	rt.mu.Lock()
	if rt.stopping.Load() {
		rt.mu.Unlock()
		panic("tasking: Submit after Shutdown")
	}
	rt.live++
	rt.stats.Submitted++
	rt.seq++
	t.id = rt.seq
	for i := range opts {
		switch o := &opts[i]; o.kind {
		case optDeps:
			for _, d := range o.deps {
				t.preds += int32(rt.reg.register(t, d))
			}
		case optLabel:
			t.label = o.label
		case optOnReady:
			t.onready = o.onready
		case optNonBlocking:
			t.steps = true
		}
	}
	if guarded {
		if rt.chainTail != nil {
			rt.chainTail.pre.t = t
		} else {
			rt.chainHead = t
		}
		rt.chainTail = t
		first := !rt.chainBusy
		rt.chainBusy = true
		rt.mu.Unlock()
		if first {
			// Drawn at the Submit, where a submitter sleeping out the
			// overhead would draw its wake: the chain's keys must be
			// those of that model.
			rt.creation.After(rt.cfg.SubmitOverhead)
		}
		return t
	}
	satisfied := t.preds == 0
	rt.mu.Unlock()
	rt.created(t, satisfied)
	return t
}

// create is the creation chain's event: the submission overhead of the
// chain's head task has elapsed. It releases the head's creation guard,
// creates the task and arms itself for the next task, drawing its key
// where a submitter that had just created the head would have drawn its
// next Sleep. Once the chain is dry it wakes a waiting submitter.
//
// An edge registered at Submit to a predecessor that completes before the
// guard is released only lowers the count of a task still guarded: the
// registry keeps every predecessor but the completed ones (addEdge), so
// the task becomes ready when it would have had the edge never existed,
// with no release edge (relBy 0) if the guard is released last.
//
//tagalint:hotpath
func (rt *Runtime) create() {
	rt.mu.Lock()
	t := rt.chainHead
	rt.chainHead, t.pre.t = t.pre.t, t
	if rt.chainHead == nil {
		rt.chainTail = nil
	}
	t.preds--
	satisfied := t.preds == 0
	rt.mu.Unlock()
	rt.created(t, satisfied)
	rt.mu.Lock()
	more := rt.chainHead != nil
	var p *vclock.Parker
	if !more {
		rt.chainBusy = false
		p, rt.submitter = rt.submitter, nil
	}
	rt.mu.Unlock()
	if more {
		rt.creation.After(rt.cfg.SubmitOverhead)
	} else if p != nil {
		p.Unpark()
	}
}

// created records a registered task's creation and advances it if its
// dependencies are already satisfied.
func (rt *Runtime) created(t *Task, satisfied bool) {
	if rt.rec != nil {
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:create", rt.clk.Now(), t.id)
	}
	if satisfied {
		rt.depsSatisfied(t)
	}
}

// waitCreated parks the submitter until the creation chain has run dry:
// every task it submitted has been created, at the instant a submitter
// paying each overhead in turn would have reached. Throttle, TaskWait,
// Shutdown and Now wait here first.
func (rt *Runtime) waitCreated() {
	rt.mu.Lock()
	if !rt.chainBusy {
		rt.mu.Unlock()
		return
	}
	if rt.submitter != nil {
		rt.mu.Unlock()
		panic("tasking: two goroutines wait for the creation chain; a runtime has one submitter")
	}
	p := rt.clk.PooledParker()
	p.SetName("submit")
	rt.submitter = p
	rt.mu.Unlock()
	p.Park()
	rt.clk.PutParker(p)
}

// Now waits until every task submitted so far has been created and reads
// the clock: the instant a submitter that paid each task's SubmitOverhead
// in turn would read. A rank main reads the time through it after
// submitting.
func (rt *Runtime) Now() time.Duration {
	rt.waitCreated()
	return rt.clk.Now()
}

// depsSatisfied advances a task whose dependencies are all released:
// through the onready callback if present, then to the ready queue.
func (rt *Runtime) depsSatisfied(t *Task) {
	if cb := t.onready; cb != nil {
		t.onready = nil
		rt.mu.Lock()
		t.state = stateOnready
		t.pre.n = 1 // guard: the callback itself
		rt.mu.Unlock()
		cb(t)
		// Releasing the guard schedules the task once (and only once)
		// every event the callback registered has been fulfilled.
		t.pre.Decrease(1)
		return
	}
	rt.mu.Lock()
	t.state = stateQueued
	rt.mu.Unlock()
	rt.markReady(t)
}

// markReady records the task's readiness (for the ready-to-run latency and
// the timeline) and queues it for a core. The ticket is drawn here, under
// the event that made the task ready, so tasks receive cores in readiness
// order, not in goroutine-scheduling order. Callers must not hold rt.mu.
func (rt *Runtime) markReady(t *Task) {
	if rt.rec != nil {
		t.readyAt = rt.clk.Now()
		if t.relBy != 0 {
			rt.rec.Flow(rt.rank, obs.TrackMain, obs.CatTask, "flow:task", 'f',
				t.readyAt, obs.FlowID(obs.FlowKindTask, int64(rt.rank), t.relBy, t.id))
		}
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:ready", t.readyAt, t.id)
	}
	rt.cores.acquire(coreWaiter{t: t})
}

// recReleaseEdges starts one dependency-release flow edge from completed
// task t to every successor its completion made ready; markReady finishes
// each edge at the successor's ready timestamp. Edge ids hash (rank,
// predecessor id, successor id) — all deterministic — so reruns emit
// identical edges. Callers must not hold rt.mu (lockcross discipline).
func (rt *Runtime) recReleaseEdges(t *Task, ready []*Task) {
	if rt.rec == nil || len(ready) == 0 {
		return
	}
	now := rt.clk.Now()
	for _, s := range ready {
		rt.rec.Flow(rt.rank, obs.TrackMain, obs.CatTask, "flow:task", 's',
			now, obs.FlowID(obs.FlowKindTask, int64(rt.rank), t.id, s.id))
	}
}

// granted runs on the goroutine that grants t its core, under cs.mu: it
// keys the dispatch overhead there, as Service.Start keys its own, so the
// body's start orders among same-instant timers by the grant, not by when
// a goroutine gets scheduled. The lock serializes the pushes of grants made
// on goroutines that run at the same time. It reports whether the caller
// must start t itself once it has released cs.mu: a step body with no
// overhead to pay runs its first step at once, and a step may take cores.
//
//tagalint:hotpath
func (rt *Runtime) granted(t *Task) (startUnlocked bool) {
	if d := rt.cfg.DispatchOverhead; d > 0 {
		rt.starts.Push(d, t)
		return false
	}
	if t.steps {
		return true
	}
	rt.start(t)
	return false
}

// start runs a granted task whose dispatch overhead has elapsed. It
// begins the body here, on the granting goroutine or clock callback, so
// bodies granted at one instant take their timeline lanes in grant order. A
// step body runs its first step here too. Any other body gets a goroutine
// of its own, because it may block (Compute, Iwait); start registers and
// spawns it by hand, since VirtualClock.Go would wrap exec in one more
// closure allocation per task.
//
//tagalint:hotpath
func (rt *Runtime) start(t *Task) {
	rt.running.Add(1)
	rt.begin(t)
	if t.steps {
		if body := t.body; body != nil {
			t.body = nil
			body(t)
		}
		rt.runSteps(t)
		return
	}
	rt.clk.Register()
	go rt.exec(t)
}

// begin marks a started task running and, on instrumented runs, gives it a
// timeline lane, records its ready-to-run latency and keeps the body's
// start in t.readyAt. A goroutine body is begun under cs.mu when it has no
// dispatch overhead to pay; the runtime never takes cs.mu under rt.mu.
func (rt *Runtime) begin(t *Task) {
	rt.mu.Lock()
	t.state = stateRunning
	rt.mu.Unlock()
	if rt.rec != nil {
		start := rt.clk.Now()
		t.lane = rt.lanes.acquire()
		rt.rec.Latency("tasking.ready_to_run", start-t.readyAt)
		t.readyAt = start
	}
}

// end closes a body that has run: its span, its completion pseudo-event and
// its core, in that order.
func (rt *Runtime) end(t *Task) {
	if rt.rec != nil {
		rt.rec.Span(rt.rank, obs.TaskTrack(t.lane), obs.CatTask, t.spanName(),
			t.readyAt, rt.clk.Now(), t.id)
		rt.lanes.release(t.lane)
	}
	rt.finishBody(t)
	rt.cores.releaseTask()
}

// runSteps runs the steps a step task's last step named with Then, until
// one charges time (a clock callback resumes the chain) or one names no
// next step (the body is done).
//
//tagalint:hotpath
func (rt *Runtime) runSteps(t *Task) {
	for !t.charging {
		next := t.next
		if next == nil {
			rt.end(t)
			rt.running.Done()
			return
		}
		t.next = nil
		next()
	}
}

// resume is the steps stream's callback: the time a step charged with Then
// has passed, so the next step runs.
//
//tagalint:hotpath
func (rt *Runtime) resume(t *Task) {
	t.charging = false
	rt.runSteps(t)
}

// exec runs one begun task on its own registered goroutine: it runs the
// body, ends it and unregisters.
//
//tagalint:hotpath
func (rt *Runtime) exec(t *Task) {
	defer rt.clk.Unregister()
	defer rt.running.Done()
	if t.body != nil {
		t.body(t)
		t.body = nil
	}
	rt.end(t)
}

// finishBody marks the body done and releases the execution pseudo-event;
// if no external events remain the task completes immediately.
func (rt *Runtime) finishBody(t *Task) {
	rt.mu.Lock()
	t.state = stateFinished
	t.comp.n--
	var ready []*Task
	completed := t.comp.n == 0
	if completed {
		ready = rt.completeLocked(t)
	}
	rt.mu.Unlock()
	if completed && rt.rec != nil {
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:complete", rt.clk.Now(), t.id)
	}
	rt.recReleaseEdges(t, ready)
	rt.wakeSatisfied(ready)
}

// completeLocked finalises a task: releases its dependencies and returns
// the successors that became ready. Callers hold rt.mu.
func (rt *Runtime) completeLocked(t *Task) (ready []*Task) {
	t.state = stateCompleted
	if !t.spawned {
		rt.stats.Completed++
	}
	if t.spawned {
		rt.spawnLive--
		if rt.spawnLive == 0 {
			// The waiters' parkers are pooled: each slot is cleared
			// before its parker is woken and recycled.
			for i, p := range rt.sdWaiters {
				rt.sdWaiters[i] = nil
				p.Unpark()
			}
			rt.sdWaiters = rt.sdWaiters[:0]
		}
	} else {
		rt.live--
		if len(rt.thWaiters) > 0 {
			keep := rt.thWaiters[:0]
			for i, w := range rt.thWaiters {
				rt.thWaiters[i] = throttleWaiter{}
				if rt.live <= w.max {
					w.p.Unpark()
				} else {
					keep = append(keep, w)
				}
			}
			rt.thWaiters = keep
		}
	}
	for _, s := range t.succs {
		s.preds--
		if s.preds == 0 && s.state == stateCreated {
			s.relBy = t.id // the release edge critpath follows (DESIGN.md §10)
			ready = append(ready, s)
		}
	}
	t.succs = nil
	return ready
}

// wakeSatisfied advances tasks collected by completeLocked.
func (rt *Runtime) wakeSatisfied(ready []*Task) {
	for _, s := range ready {
		rt.depsSatisfied(s)
	}
}

// laneAlloc hands out dense timeline-row indices for concurrently running
// task bodies: a body takes the lowest free lane for its whole run (held
// across yields), so the trace draws at most lanes-in-use rows per rank.
// It uses its own host mutex, never the runtime lock, and is touched only
// on instrumented runs.
type laneAlloc struct {
	mu   sync.Mutex
	free []int32
	next int32
}

func (la *laneAlloc) acquire() int32 {
	la.mu.Lock()
	defer la.mu.Unlock()
	if n := len(la.free); n > 0 {
		l := la.free[n-1]
		la.free = la.free[:n-1]
		return l
	}
	l := la.next
	la.next++
	return l
}

func (la *laneAlloc) release(l int32) {
	la.mu.Lock()
	// Keep the free list sorted descending so acquire reuses the lowest
	// lane first, keeping timelines compact.
	i := len(la.free)
	la.free = append(la.free, l)
	for i > 0 && la.free[i-1] < l {
		la.free[i] = la.free[i-1]
		i--
	}
	la.free[i] = l
	la.mu.Unlock()
}

// TaskWait blocks until every submitted task has completed (dependencies
// released), like #pragma oss taskwait: Throttle(0). It must be called
// from the submitter (the rank's main), never from inside a task body.
func (rt *Runtime) TaskWait() { rt.Throttle(0) }

// Throttle blocks until every submitted task has been created
// (waitCreated) and at most max tasks are incomplete. Rank mains call it
// between iterations to bound the live task window without introducing a
// barrier (the Nanos6 throttle). Its parker is named "taskwait" when max
// is 0, so a deadlock report says which wait a rank is stuck in.
func (rt *Runtime) Throttle(max int) {
	rt.waitCreated()
	rt.mu.Lock()
	if rt.live <= max {
		rt.mu.Unlock()
		return
	}
	p := rt.clk.PooledParker()
	if max == 0 {
		p.SetName("taskwait")
	} else {
		p.SetName("throttle")
	}
	rt.thWaiters = append(rt.thWaiters, throttleWaiter{p: p, max: max})
	rt.mu.Unlock()
	p.Park()
	rt.clk.PutParker(p)
}

// Shutdown asks polling services to stop and waits for them and for the
// task bodies' goroutines to finish. Regular tasks must already be complete
// (TaskWait). A dormant service is woken to exit at the first pass that
// would have seen the runtime stopping (Service.rouse). Shutdown is
// idempotent and safe to call from multiple goroutines — an early-exiting
// rank and the job teardown may both call it.
func (rt *Runtime) Shutdown() {
	rt.waitCreated()
	rt.mu.Lock()
	rt.stopping.Store(true)
	rt.mu.Unlock()
	rt.cores.mu.Lock()
	rt.cores.rouseAll()
	rt.cores.mu.Unlock()
	rt.mu.Lock()
	if rt.spawnLive > 0 {
		p := rt.clk.PooledParker()
		p.SetName("shutdown")
		rt.sdWaiters = append(rt.sdWaiters, p)
		rt.mu.Unlock()
		p.Park()
		rt.clk.PutParker(p)
	} else {
		rt.mu.Unlock()
	}
	// A body or service outlives the TaskWait or Shutdown its completion
	// wakes by a few steps (trace records, the core release); the job's
	// results must not race them.
	rt.running.Wait()
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.stats
	st.SkippedPasses, st.UndecidedWakes = rt.skipped.Load(), rt.undecided.Load()
	return st
}

// Snapshot returns the runtime counters in the common observability
// shape.
func (rt *Runtime) Snapshot() obs.Snapshot {
	s := rt.Stats()
	return obs.Snapshot{
		Component: "tasking",
		Rank:      rt.rank,
		Samples: []obs.Sample{
			{Name: "tasks.submitted", Value: float64(s.Submitted)},
			{Name: "tasks.completed", Value: float64(s.Completed)},
			{Name: "tasks.spawned", Value: float64(s.Spawned)},
		},
	}
}

// coreSched grants core slots in readiness order: each ready task or
// service step draws a ticket and registers its waiter in one step, under
// the event that made it ready, and cores are granted in strict ticket
// order, which makes scheduling deterministic in virtual time instead of
// following the host scheduler's interleaving. No waiter blocks: a task
// is handed to granted, a service step runs as a continuation.
//
// The scheduler also keeps what polling-service dormancy needs under its
// lock: the tasks that hold or wait for a core, the services and how many
// of them are dormant (Service.sleep).
type coreSched struct {
	mu        sync.Mutex
	n, free   int
	nextTkt   uint64
	nextGrant uint64
	// granted runs under mu; true asks for the task to be started
	// (Runtime.start) once mu is released.
	granted func(*Task) bool

	// waiters is a ring over the ungranted tickets: ticket k waits in slot
	// k mod len(waiters), and len(waiters) is a power of two that acquire
	// keeps at least nextTkt−nextGrant.
	waiters []coreWaiter

	tasks   int        // tasks holding or waiting for a core
	svcs    []*Service // started polling services, in start order
	dormant int        // how many of them are dormant
}

// coreWaiter is one waiting ticket: exactly one of t and fn is set.
type coreWaiter struct {
	t  *Task  // a ready task, handed to granted
	fn func() // a service step, run outside mu
}

func newCoreSched(n int, granted func(*Task) bool) *coreSched {
	return &coreSched{n: n, free: n, granted: granted, waiters: make([]coreWaiter, 16)}
}

// acquire draws the next ticket for w and grants it once a core is free
// and every earlier ticket has been granted — at once, on the calling
// goroutine, if that is already so. It never blocks. A ticket that could
// wait behind a dormant service's skipped pass — a task's, or any once the
// services outnumber the cores — first wakes every dormant service, which
// takes the core its pass in progress would hold.
//
//tagalint:hotpath
func (cs *coreSched) acquire(w coreWaiter) {
	cs.mu.Lock()
	if w.t != nil {
		cs.tasks++
	}
	if cs.dormant > 0 && (w.t != nil || len(cs.svcs) > cs.n) {
		cs.rouseAll()
	}
	if cs.nextTkt-cs.nextGrant == uint64(len(cs.waiters)) {
		cs.grow()
	}
	cs.waiters[cs.nextTkt&uint64(len(cs.waiters)-1)] = w
	cs.nextTkt++
	cs.grantUnlock()
}

// grow doubles the full waiter ring, moving each ungranted ticket to its
// slot in the larger one. Callers hold cs.mu.
func (cs *coreSched) grow() {
	n := uint64(len(cs.waiters))
	ring := make([]coreWaiter, 2*n)
	for k := cs.nextGrant; k < cs.nextTkt; k++ {
		ring[k&(2*n-1)] = cs.waiters[k&(n-1)]
	}
	cs.waiters = ring
}

// rouseAll wakes every dormant service. Callers hold cs.mu.
func (cs *coreSched) rouseAll() {
	for _, s := range cs.svcs {
		if s.dormant {
			s.rouse()
		}
	}
}

// release returns a core and passes it to the next ticket in line.
func (cs *coreSched) release() {
	cs.mu.Lock()
	cs.free++
	cs.grantUnlock()
}

// releaseTask is release for a task's core.
func (cs *coreSched) releaseTask() {
	cs.mu.Lock()
	cs.tasks--
	cs.free++
	cs.grantUnlock()
}

// grantUnlock hands free cores down the ticket line and releases cs.mu,
// which the caller holds. A task is granted under cs.mu; a service step,
// and the first step of a step task that starts at once, is run outside
// it, after which the line is looked at again.
//
//tagalint:hotpath
func (cs *coreSched) grantUnlock() {
	for cs.free > 0 && cs.nextGrant < cs.nextTkt {
		s := &cs.waiters[cs.nextGrant&uint64(len(cs.waiters)-1)]
		w := *s
		*s = coreWaiter{}
		cs.free--
		cs.nextGrant++
		if w.t != nil && !cs.granted(w.t) {
			continue
		}
		cs.mu.Unlock()
		if w.t != nil {
			w.t.rt.start(w.t)
		} else {
			w.fn()
		}
		cs.mu.Lock()
	}
	cs.mu.Unlock()
}
