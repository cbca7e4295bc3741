// Package core holds the task-awareness machinery shared by the Task-Aware
// MPI and Task-Aware GASPI libraries (§IV-D and §V-B of the paper):
//
//   - Service: the transparent polling task. Each library spawns one via
//     the runtime's independent-task API (nanos6_spawn_function) and it
//     periodically checks pending communication operations, sleeping
//     between passes with wait_for_us so its core can run other tasks.
//     Each service has its own polling period — the flexibility §V-B adds
//     over the older global polling-services API — fixed when it is made.
//     The service is event-driven (tasking.Service): a pass is a chain of
//     non-blocking steps on clock callback events, not a goroutine loop.
//
//   - Pending: a multi-producer staging queue for operation descriptors.
//     Communication tasks enqueue concurrently; the polling task drains the
//     queue into a private list it owns, so producer contention never slows
//     the poller — the §IV-D structure (lock-free MPSC queue + intrusive
//     list in the C++ implementation; a mutex-staged slice pair here, with
//     the same drain-to-private-list behaviour).
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tasking"
)

// Poller starts one checking pass over a library's pending operations. The
// pass is made of service steps: it charges modelled time with
// Service.After, never by blocking (a pass that has to block moves itself
// onto a Clock.Go goroutine), and ends — in the call itself or in a later
// step — with exactly one Service.Done.
type Poller func()

// Service is a transparent polling task bound to one task-aware library.
type Service struct {
	rt   *tasking.Runtime
	name string
	task *tasking.Service
	poll Poller

	interval time.Duration // between passes; 0 = dedicated
	passes   atomic.Int64
	idle     atomic.Int64 // passes that retired nothing

	before time.Duration // start of the pass in progress
	passFn func()        // s.pass, bound once so that waiting allocates nothing

	// Polling iterations are recorded on a per-service track; metric names
	// are built once.
	track                         obs.Track
	spanName, passCtr, retiredCtr string
}

// minIdleTick bounds a zero-cost idle polling pass so a dedicated (0µs)
// poller cannot spin at one virtual instant when nothing is in flight.
const minIdleTick = 200 * time.Nanosecond

// NewService prepares the polling task of one library. interval is the
// period between passes (§VI: 50–150µs are the paper's tuned values); a
// non-positive interval dedicates the core, polling back-to-back. A job
// reaches this through cluster.Config, which replaces a zero period with
// the library default, so only a negative one dedicates there. Nothing
// runs until Start.
func NewService(rt *tasking.Runtime, name string, interval time.Duration) *Service {
	s := &Service{
		rt: rt, name: name, interval: interval,
		track:      obs.PollTrack(name),
		spanName:   "poll:" + name,
		passCtr:    "poll." + name + ".passes",
		retiredCtr: "poll." + name + ".retired",
	}
	s.passFn = s.pass
	return s
}

// Start spawns the polling task; its first pass may run before Start
// returns. The service stops when the runtime shuts down.
func (s *Service) Start(poll Poller) {
	s.poll = poll
	s.rt.Spawn(s.name, func(t *tasking.Service) {
		s.task = t
		s.pass()
	})
}

// pass begins one polling pass; the service holds a core.
//
//tagalint:hotpath
func (s *Service) pass() {
	if s.rt.Stopping() {
		s.task.Exit()
		return
	}
	s.before = s.rt.Clock().Now()
	s.poll()
}

// After charges d of modelled time to the pass in progress — the service
// keeps its core — and then runs the pass's next step fn.
//
//tagalint:hotpath
func (s *Service) After(d time.Duration, fn func()) { s.task.After(d, fn) }

// Done ends the pass in progress, which retired n completions, and waits
// out the polling period before the next one. Idle passes only bump a
// counter — a dedicated poller makes millions of them and spans for each
// would swamp the trace.
//
//tagalint:hotpath
func (s *Service) Done(n int) {
	clk := s.rt.Clock()
	s.passes.Add(1)
	if n == 0 {
		s.idle.Add(1)
	}
	if rec := s.rt.Recorder(); rec != nil {
		rec.Count(s.passCtr, 1)
		if n > 0 {
			rec.Count(s.retiredCtr, int64(n))
			rec.Span(s.rt.Rank(), s.track, obs.CatPoll, s.spanName, s.before, clk.Now(), int64(n))
		}
	}
	switch {
	case s.interval > 0:
		s.task.WaitFor(s.interval, s.passFn)
	case clk.Now() == s.before:
		// Dedicated polling with an idle pass of zero modelled cost:
		// yield briefly so virtual time can advance.
		s.task.WaitFor(minIdleTick, s.passFn)
	default:
		s.pass()
	}
}

// Passes returns the number of completed polling passes.
func (s *Service) Passes() int64 { return s.passes.Load() }

// IdlePasses returns how many completed passes retired nothing.
func (s *Service) IdlePasses() int64 { return s.idle.Load() }

// Pending is the staging queue of §IV-D: many communication tasks push
// descriptors concurrently; the single polling task drains them into a
// private list it then owns without further synchronization.
type Pending[T any] struct {
	n      atomic.Int32 // len(staged), readable without mu
	mu     sync.Mutex
	staged []T
	pool   [][]T // recycled staging backing arrays
}

// Push stages one descriptor. Safe for concurrent producers.
//
//tagalint:hotpath
func (q *Pending[T]) Push(v T) {
	q.mu.Lock()
	//lint:ignore hotalloc staged reuses pooled backing arrays recycled by Drain; growth stops once the high-water mark is reached
	q.staged = append(q.staged, v)
	q.n.Add(1)
	q.mu.Unlock()
}

// Drain moves all staged descriptors into dst (appending) and returns the
// result. The returned slice is owned by the caller: the poller appends
// drained descriptors to its private working list.
//
//tagalint:hotpath
func (q *Pending[T]) Drain(dst []T) []T {
	if q.n.Load() == 0 {
		return dst // the idle pass: nothing was staged since the last drain
	}
	q.mu.Lock()
	staged := q.staged
	q.n.Store(0)
	if n := len(q.pool); n > 0 {
		q.staged = q.pool[n-1][:0]
		q.pool = q.pool[:n-1]
	} else {
		q.staged = nil
	}
	q.mu.Unlock()
	dst = append(dst, staged...)
	if cap(staged) > 0 {
		var zero T
		for i := range staged {
			staged[i] = zero // drop references for the collector
		}
		q.mu.Lock()
		//lint:ignore hotalloc the pool list grows to the number of in-flight staging arrays and then stabilises
		q.pool = append(q.pool, staged[:0])
		q.mu.Unlock()
	}
	return dst
}

// Len reports the number of currently staged descriptors.
func (q *Pending[T]) Len() int { return int(q.n.Load()) }
