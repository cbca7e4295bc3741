package tasking

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// state is the task lifecycle position (Figure 1 of the paper: ready →
// running → finished → completed, with creation and onready before ready).
type state uint8

const (
	stateCreated   state = iota // submitted, dependencies pending
	stateOnready                // dependencies satisfied, onready in flight
	stateQueued                 // ready, waiting for a core
	stateRunning                // body executing
	stateFinished               // body done, external events outstanding
	stateCompleted              // events fulfilled, dependencies released
)

func (s state) String() string {
	switch s {
	case stateCreated:
		return "created"
	case stateOnready:
		return "onready"
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateFinished:
		return "finished"
	case stateCompleted:
		return "completed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Body is a task body. The task handle gives access to the external events
// API and modelled compute.
type Body func(t *Task)

// Task is one unit of work with region dependencies. A pending task holds
// only what its future needs: the body and onready callback until they
// have run, its successor list and its counters. The dependency list it
// was submitted with is registered by Submit and not kept (DESIGN.md §16).
// The record fits the 144-byte allocation size class
// (TestTaskRecordFitsSizeClass).
type Task struct {
	rt      *Runtime
	body    Body        // nil once it has run
	onready func(*Task) // nil once it has run
	next    func()      // a step task's next step (Then), until it runs
	label   string

	// Guarded by rt.mu.
	succs []*Task
	relBy int64 // id of the predecessor whose completion made this task ready

	// Trace identity, used only on instrumented runs. id is assigned under
	// rt.mu at submission; readyAt is written by markReady before dispatch
	// and holds the body's start once it runs; lane (below) is written as
	// the body starts and read as it ends.
	id      int64
	readyAt time.Duration

	// pre gates execution (onready-registered events) and comp completion
	// (external events API). Until the task is created, pre.t is not its
	// task but its link in the runtime's creation chain (Runtime.create):
	// nothing reads pre before the dependencies are satisfied, which the
	// creation guard holds off until then, and the record has no room for
	// a field of its own.
	pre  EventCounter
	comp EventCounter

	// The small fields, grouped so that together they pack into two words.
	preds    int32 // unreleased predecessors; guarded by rt.mu
	lane     int32
	state    state // guarded by rt.mu
	spawned  bool
	steps    bool // a step task (NonBlocking)
	charging bool // a step task's Then is charging time; owned by its steps
}

// spanName is the label of the task's body span in the timeline.
func (t *Task) spanName() string {
	if t.label != "" {
		return t.label
	}
	return "task"
}

// Events returns the event counter appropriate to the calling context:
// during the onready callback it gates the task's *execution* (§V-A of the
// paper); from the body it gates the task's *completion and dependency
// release* (the task external events API, §II-C). Task-aware communication
// libraries bind their in-flight operations to this counter.
func (t *Task) Events() *EventCounter {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.state == stateOnready {
		return &t.pre
	}
	return &t.comp
}

// Compute occupies the caller's core for d of modelled time: the body's
// computational work. Under the ideal profile d is zero and this is free.
// A step task blocks nowhere and charges its time with Then instead.
func (t *Task) Compute(d time.Duration) {
	if t.steps {
		panic("tasking: Compute in a step task; charge the time with Then")
	}
	t.rt.clk.Sleep(d)
}

// NonBlocking reports whether t is a step task, submitted with the
// NonBlocking option.
func (t *Task) NonBlocking() bool { return t.steps }

// Then ends the calling step of a step task: it charges d of modelled time
// on the task's core and then runs next as the task's next step. Like
// Compute's Sleep, it keys the wake where it is called, and a non-positive
// d costs nothing and draws no key: next runs as soon as the calling step
// returns. Then must be the step's last call.
//
//tagalint:hotpath
func (t *Task) Then(d time.Duration, next func()) {
	if !t.steps {
		panic("tasking: Then outside a step task")
	}
	t.next = next
	if d <= 0 {
		return
	}
	t.charging = true
	cs := t.rt.cores
	cs.mu.Lock()
	t.rt.steps.Push(d, t)
	cs.mu.Unlock()
}

// EventCounter counts outstanding external events bound to one task.
// It is safe to Decrease from any goroutine (delivery handlers, polling
// tasks).
type EventCounter struct {
	t   *Task
	n   int32 // guarded by t.rt.mu
	pre bool
}

// Increase registers n new outstanding events. It must be called before
// the event's fulfilment can possibly race the counter reaching zero, i.e.
// from the onready callback or the running body (as TAMPI_Iwait and the
// TAGASPI operations do).
func (c *EventCounter) Increase(n int) {
	if n < 0 {
		panic("tasking: negative event increase")
	}
	rt := c.t.rt
	rt.mu.Lock()
	c.n += int32(n)
	rt.mu.Unlock()
}

// Decrease fulfils n events. When the counter reaches zero the runtime
// advances the task: an execution-gating counter schedules it; the
// completion counter completes it and releases its dependencies.
func (c *EventCounter) Decrease(n int) {
	if n < 0 {
		panic("tasking: negative event decrease")
	}
	rt := c.t.rt
	rt.mu.Lock()
	c.n -= int32(n)
	if c.n < 0 {
		rt.mu.Unlock()
		panic(fmt.Sprintf("tasking: event counter of task %q went negative", c.t.label))
	}
	fire := c.n == 0
	var ready []*Task
	if fire {
		if c.pre {
			c.t.state = stateQueued
		} else if c.t.state == stateFinished {
			ready = rt.completeLocked(c.t)
		} else {
			// The body is still running; completion happens when it
			// finishes (finishBody re-checks the counter).
			fire = false
		}
	}
	rt.mu.Unlock()
	if !fire {
		return
	}
	if c.pre {
		rt.markReady(c.t)
		return
	}
	if rt.rec != nil {
		rt.rec.Instant(rt.rank, obs.TrackMain, obs.CatTask, "task:complete",
			rt.clk.Now(), c.t.id)
	}
	rt.recReleaseEdges(c.t, ready)
	rt.wakeSatisfied(ready)
}
