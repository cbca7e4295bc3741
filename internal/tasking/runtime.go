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
// Each simulated rank owns one Runtime whose worker pool has one slot per
// core. Running tasks are goroutines holding a core slot until their body
// returns. The task-aware libraries' polling services (Service, service.go)
// are spawned service tasks: they hold core slots too but have no
// goroutine, run their passes as steps on clock callback events, and yield
// their slot in wait_for_us between passes.
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
	// observes with small block sizes (Figs. 10 and 12).
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
}

// Runtime is a per-rank tasking runtime.
type Runtime struct {
	clk   *vclock.VirtualClock
	cfg   Config
	cores *coreSched
	pool  *workerPool

	rec   *obs.Collector // nil: uninstrumented
	rank  int            // rank identity for trace events
	lanes laneAlloc      // timeline rows for concurrently running bodies

	mu        sync.Mutex
	reg       *depRegistry
	live      int              // incomplete regular tasks
	spawnLive int              // incomplete spawned service tasks
	stopping  atomic.Bool      // set under mu, read per pass without it
	seq       int64            // task ids for trace correlation
	twWaiters []*vclock.Parker // TaskWait: woken when live hits 0
	thWaiters []throttleWaiter
	sdWaiters []*vclock.Parker // Shutdown: woken when spawnLive hits 0
	stats     Stats
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
	rt := &Runtime{
		clk:   clk,
		cfg:   cfg,
		cores: newCoreSched(clk, cfg.Cores),
		reg:   newDepRegistry(),
	}
	rt.pool = &workerPool{rt: rt}
	return rt
}

// SetRecorder installs the observability recorder and the runtime's rank
// identity for trace events, before the first Submit or Service.Start; a
// nil recorder (the default) keeps the runtime uninstrumented.
func (rt *Runtime) SetRecorder(rec *obs.Collector, rank int) {
	rt.rec = rec
	rt.rank = rank
}

// Option customises one task: its region dependencies, its label or its
// onready callback. It is plain data, read once by Submit.
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
)

// WithDeps attaches region dependencies. Submit registers them before it
// returns and keeps no reference to deps, so the caller may reuse the
// backing array for the next task. Several WithDeps options register in
// argument order.
func WithDeps(deps ...Dep) Option { return Option{kind: optDeps, deps: deps} }

// WithLabel attaches a diagnostic label. If several are given, the last
// wins.
func WithLabel(label string) Option { return Option{kind: optLabel, label: label} }

// WithOnReady attaches an onready callback (§V-A): it runs exactly once,
// after the task's dependencies are satisfied and before its body, outside
// any task context. It may register events on the task (via Events()) that
// delay the body's execution until they are fulfilled. If several are
// given, the last wins.
func WithOnReady(cb func(*Task)) Option { return Option{kind: optOnReady, onready: cb} }

// Submit creates a task and registers its dependencies in program order.
// It returns the task handle; the task runs asynchronously once its
// dependencies are satisfied and a core is free.
//
// Submit must not be called concurrently from multiple goroutines of the
// same runtime when tasks share regions: like OmpSs-2, the sequential
// submission order defines the data-flow semantics.
func (rt *Runtime) Submit(body Body, opts ...Option) *Task {
	if rt.cfg.SubmitOverhead > 0 {
		rt.clk.Sleep(rt.cfg.SubmitOverhead)
	}
	t := &Task{rt: rt, body: body}
	t.pre = EventCounter{t: t, pre: true}
	t.comp = EventCounter{t: t, n: 1} // the body-execution pseudo-event
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
		}
	}
	satisfied := t.preds == 0
	rt.mu.Unlock()
	if rt.rec != nil {
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:create", rt.clk.Now(), t.id)
	}
	if satisfied {
		rt.depsSatisfied(t)
	}
	return t
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
// the timeline) and hands it to the worker pool. Callers must not hold
// rt.mu.
func (rt *Runtime) markReady(t *Task) {
	if rt.rec != nil {
		t.readyAt = rt.clk.Now()
		if t.relBy != 0 {
			rt.rec.Flow(rt.rank, obs.TrackMain, obs.CatTask, "flow:task", 'f',
				t.readyAt, obs.FlowID(obs.FlowKindTask, int64(rt.rank), t.relBy, t.id))
		}
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:ready", t.readyAt, t.id)
	}
	rt.dispatch(t)
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

// dispatch hands a ready task to the worker pool. The core-grant ticket is
// taken synchronously so that tasks receive cores in readiness order, not
// in goroutine-scheduling order.
func (rt *Runtime) dispatch(t *Task) {
	rt.pool.submit(t)
}

// exec runs one dispatched task on the calling pool worker: it claims the
// task's core grant, charges the dispatch overhead, runs the body and
// completes it — byte for byte the sequence the per-task goroutines of the
// unsharded runtime executed, so the modelled schedule is unchanged.
//
//tagalint:hotpath
func (rt *Runtime) exec(t *Task, ticket uint64) {
	rt.cores.acquire(ticket)
	if rt.cfg.DispatchOverhead > 0 {
		rt.clk.Sleep(rt.cfg.DispatchOverhead)
	}
	rt.mu.Lock()
	t.state = stateRunning
	rt.mu.Unlock()
	var start time.Duration
	if rt.rec != nil {
		start = rt.clk.Now()
		t.lane = rt.lanes.acquire()
		rt.rec.Latency("tasking.ready_to_run", start-t.readyAt)
	}
	if t.body != nil {
		t.body(t)
		t.body = nil
	}
	if rt.rec != nil {
		rt.rec.Span(rt.rank, obs.TaskTrack(t.lane), obs.CatTask, t.spanName(),
			start, rt.clk.Now(), t.id)
		rt.lanes.release(t.lane)
	}
	rt.finishBody(t)
	rt.cores.release()
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
			for _, p := range rt.sdWaiters {
				p.Unpark()
			}
			rt.sdWaiters = nil
		}
	} else {
		rt.live--
		if rt.live == 0 {
			for _, p := range rt.twWaiters {
				p.Unpark()
			}
			rt.twWaiters = nil
		}
		if len(rt.thWaiters) > 0 {
			keep := rt.thWaiters[:0]
			for _, w := range rt.thWaiters {
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
// released), like #pragma oss taskwait. It must be called from a non-task
// goroutine (the rank's main), never from inside a task body.
func (rt *Runtime) TaskWait() {
	rt.mu.Lock()
	if rt.live == 0 {
		rt.mu.Unlock()
		return
	}
	p := rt.clk.Parker()
	p.SetName("taskwait")
	rt.twWaiters = append(rt.twWaiters, p)
	rt.mu.Unlock()
	p.Park()
}

// Throttle blocks until at most max tasks are incomplete. Rank mains call
// it between iterations to bound the live task window without introducing
// a barrier (the Nanos6 throttle).
func (rt *Runtime) Throttle(max int) {
	rt.mu.Lock()
	if rt.live <= max {
		rt.mu.Unlock()
		return
	}
	p := rt.clk.Parker()
	p.SetName("throttle")
	rt.thWaiters = append(rt.thWaiters, throttleWaiter{p: p, max: max})
	rt.mu.Unlock()
	p.Park()
}

// Shutdown asks polling services to stop, waits for them to exit, and
// retires the worker pool. Regular tasks must already be complete
// (TaskWait). Shutdown is idempotent and safe to call from multiple
// goroutines — an early-exiting rank and the job teardown may both call it.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	rt.stopping.Store(true)
	if rt.spawnLive > 0 {
		p := rt.clk.Parker()
		p.SetName("shutdown")
		rt.sdWaiters = append(rt.sdWaiters, p)
		rt.mu.Unlock()
		p.Park()
	} else {
		rt.mu.Unlock()
	}
	rt.pool.stop()
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
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

// workerPool runs task bodies on a bounded set of reusable goroutines.
// The per-task-goroutine runtime it replaces spawned one goroutine per
// dispatched task — at 10k-rank scale, millions of short-lived goroutines
// whose stacks dominated host time. The pool keeps at most Cores workers
// actively progressing bodies (matching the modelled core count), parks
// surplus workers on reusable external parkers. A body never gives up its
// core before it returns, so the pool never holds more than Cores workers
// (TestPoolWorkersBoundedByCores).
//
// Determinism: the core ticket is drawn and the task enqueued under one
// lock, so the queue is in ticket order and workers claim cores through
// the unchanged coreSched in exactly the order the per-task goroutines
// did. Which goroutine executes a body has no modelled-time meaning.
type workerPool struct {
	rt *Runtime

	mu       sync.Mutex
	q        []poolItem       // dispatched bodies, ticket order
	head     int              // index of the next item in q
	idle     []*vclock.Parker // parked workers, one entry each
	seeking  int              // workers awake and heading for the queue
	handling int              // workers between claiming an item and finishing its body
	total    int              // live worker goroutines
	stopped  bool
	wg       sync.WaitGroup
}

type poolItem struct {
	t      *Task
	ticket uint64
}

// submit enqueues a ready task for the workers. The ticket draw and the
// enqueue happen under the pool lock so the queue stays in ticket order —
// a worker never claims a later ticket while an earlier one still waits,
// which would stall the grant chain.
//
//tagalint:hotpath
func (wp *workerPool) submit(t *Task) {
	wp.mu.Lock()
	ticket := wp.rt.cores.ticket()
	//lint:ignore hotalloc the queue buffer is reset to [:0] when drained, so its capacity is reused across the run
	wp.q = append(wp.q, poolItem{t: t, ticket: ticket})
	wp.ensureLocked()
	wp.mu.Unlock()
}

// qlen is the number of undispatched items. Callers hold wp.mu.
func (wp *workerPool) qlen() int { return len(wp.q) - wp.head }

// popLocked removes the next item in ticket order. Callers hold wp.mu.
func (wp *workerPool) popLocked() poolItem {
	it := wp.q[wp.head]
	wp.q[wp.head] = poolItem{}
	wp.head++
	if wp.head == len(wp.q) {
		wp.q = wp.q[:0]
		wp.head = 0
	}
	return it
}

// ensureLocked keeps the pool live: whenever dispatched work is waiting,
// fewer than Cores bodies are actively progressing and no worker is
// already heading for the queue, it wakes an idle worker or spawns a new
// one. Callers hold wp.mu.
func (wp *workerPool) ensureLocked() {
	if wp.stopped || wp.qlen() == 0 || wp.seeking > 0 ||
		wp.handling >= wp.rt.cfg.Cores {
		return
	}
	wp.seeking++
	if n := len(wp.idle); n > 0 {
		p := wp.idle[n-1]
		wp.idle[n-1] = nil
		wp.idle = wp.idle[:n-1]
		p.Unpark()
		return
	}
	wp.total++
	wp.wg.Add(1)
	wp.rt.clk.Go(wp.worker)
}

// worker is the pool goroutine loop: claim the next dispatched task, run
// it, park when the queue is empty, exit on stop. A worker created by
// ensureLocked starts in the seeking state.
//
//tagalint:hotpath
func (wp *workerPool) worker() {
	defer wp.wg.Done()
	var p *vclock.Parker
	for {
		wp.mu.Lock()
		for wp.qlen() == 0 {
			wp.seeking--
			if wp.stopped {
				wp.total--
				wp.mu.Unlock()
				return
			}
			if p == nil {
				p = wp.rt.clk.Parker()
				// An idle worker legitimately waits for work; it must not
				// trip virtual-time deadlock detection.
				p.SetExternal(true)
				p.SetName("task-worker")
			}
			//lint:ignore hotalloc the idle list grows to the worker count (bounded by cores), then reuses capacity
			wp.idle = append(wp.idle, p)
			wp.mu.Unlock()
			p.Park()
			// Whoever unparked us removed the idle entry and counted us as
			// seeking again.
			wp.mu.Lock()
		}
		it := wp.popLocked()
		wp.seeking--
		wp.handling++
		wp.ensureLocked()
		wp.mu.Unlock()
		wp.rt.exec(it.t, it.ticket)
		wp.mu.Lock()
		wp.handling--
		wp.seeking++
		wp.mu.Unlock()
	}
}

// stop asks every worker to exit: parked workers are woken to see the
// flag, busy workers exit after their current body. It is idempotent and
// must only be called once no further dispatches can occur (Shutdown).
func (wp *workerPool) stop() {
	wp.mu.Lock()
	if wp.stopped {
		wp.mu.Unlock()
		return
	}
	wp.stopped = true
	idle := wp.idle
	wp.idle = nil
	wp.seeking += len(idle)
	wp.mu.Unlock()
	for _, p := range idle {
		p.Unpark()
	}
	wp.wg.Wait()
}

// coreSched grants core slots in readiness order: each ready task draws a
// ticket synchronously (under the event that made it ready) and cores are
// granted in strict ticket order, which makes scheduling deterministic in
// virtual time instead of following the host scheduler's interleaving.
// A ticket waits as a parked goroutine (task bodies, acquire) or as a
// continuation (event-driven services, acquireFn), both in the one line.
type coreSched struct {
	clk       *vclock.VirtualClock
	mu        sync.Mutex
	free      int
	nextTkt   uint64
	nextGrant uint64

	// waiters is a ring over the drawn, ungranted tickets: ticket k waits
	// in slot k mod len(waiters), and len(waiters) is a power of two that
	// slot keeps at least nextTkt−nextGrant. A zero slot is a ticket that
	// ticket() drew and whose acquire has not registered yet.
	waiters []coreWaiter

	// parkers is a free list of core-wait parking slots. Granting clears
	// the waiter's slot before the Unpark, so each registration is woken
	// exactly once and a parker leaves acquire with no pending wake — safe
	// to hand to the next waiting task instead of allocating one per
	// dispatched task.
	parkers []*vclock.Parker
}

// coreWaiter is one waiting ticket: exactly one of p and fn is set.
type coreWaiter struct {
	p  *vclock.Parker // a goroutine parked in acquire
	fn func()         // a continuation registered by acquireFn
}

func newCoreSched(clk *vclock.VirtualClock, n int) *coreSched {
	return &coreSched{clk: clk, free: n, waiters: make([]coreWaiter, 16)}
}

// ticket reserves the caller's position in the grant order.
func (cs *coreSched) ticket() uint64 {
	cs.mu.Lock()
	t := cs.nextTkt
	cs.nextTkt++
	cs.mu.Unlock()
	return t
}

// slot returns the ring slot of a drawn ticket, first doubling the ring
// until every drawn, ungranted ticket has a slot of its own. Callers hold
// cs.mu.
func (cs *coreSched) slot(ticket uint64) *coreWaiter {
	if n := cs.nextTkt - cs.nextGrant; n > uint64(len(cs.waiters)) {
		size := len(cs.waiters)
		for uint64(size) < n {
			size *= 2
		}
		// Every registered ticket lies within len(waiters) of nextGrant:
		// it grew the ring that far when it registered.
		ring := make([]coreWaiter, size)
		for k := cs.nextGrant; k < cs.nextGrant+uint64(len(cs.waiters)); k++ {
			ring[k&uint64(size-1)] = cs.waiters[k&uint64(len(cs.waiters)-1)]
		}
		cs.waiters = ring
	}
	return &cs.waiters[ticket&uint64(len(cs.waiters)-1)]
}

// acquire blocks until a core is free and every earlier ticket has been
// granted.
func (cs *coreSched) acquire(ticket uint64) {
	cs.mu.Lock()
	var p *vclock.Parker
	for !(cs.free > 0 && ticket == cs.nextGrant) {
		if p == nil {
			if n := len(cs.parkers); n > 0 {
				p = cs.parkers[n-1]
				cs.parkers[n-1] = nil
				cs.parkers = cs.parkers[:n-1]
			} else {
				p = cs.clk.Parker()
				p.SetName("core-wait")
			}
		}
		*cs.slot(ticket) = coreWaiter{p: p}
		cs.mu.Unlock()
		p.Park()
		cs.mu.Lock()
	}
	if p != nil {
		cs.parkers = append(cs.parkers, p)
	}
	cs.free--
	cs.nextGrant++
	cs.grantUnlock()
}

// acquireFn is ticket plus acquire for callers that must not block: it
// draws the next ticket and fn runs, on the goroutine that makes the grant,
// once a core is free and every earlier ticket has been granted — at once
// if that is already so.
//
//tagalint:hotpath
func (cs *coreSched) acquireFn(fn func()) {
	cs.mu.Lock()
	t := cs.nextTkt
	cs.nextTkt++
	*cs.slot(t) = coreWaiter{fn: fn}
	cs.grantUnlock()
}

// release returns a core and passes it to the next ticket in line.
func (cs *coreSched) release() {
	cs.mu.Lock()
	cs.free++
	cs.grantUnlock()
}

// grantUnlock hands free cores down the ticket line and releases cs.mu,
// which the caller holds. A parked goroutine is woken and takes its core
// itself (continuing the line from acquire); a continuation is granted on
// the spot and run outside cs.mu, after which the line is looked at again.
// If the next ticket has not arrived yet it will see the free core on
// arrival; granting never skips ahead of it. The waiter's slot is cleared
// before the Unpark so a second grant attempt cannot Unpark the same
// registration twice, which keeps recycled parkers free of stale wakes.
//
//tagalint:hotpath
func (cs *coreSched) grantUnlock() {
	for cs.free > 0 && cs.nextGrant < cs.nextTkt {
		s := &cs.waiters[cs.nextGrant&uint64(len(cs.waiters)-1)]
		w := *s
		if w.p == nil && w.fn == nil {
			break
		}
		*s = coreWaiter{}
		if w.fn == nil {
			w.p.Unpark()
			break
		}
		cs.free--
		cs.nextGrant++
		cs.mu.Unlock()
		w.fn()
		cs.mu.Lock()
	}
	cs.mu.Unlock()
}
