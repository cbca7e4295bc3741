package tasking

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Service is the transparent polling task of a task-aware library (§V-B):
// a spawned service task (nanos6_spawn_function) that runs one checking
// pass over the library's pending operations, yields its core for the
// polling period with wait_for_us, and stops once the runtime shuts down.
// It has no dependencies and does not count towards TaskWait. Each service
// has its own polling period — the flexibility §V-B adds over the older
// global polling-services API — fixed when it is made.
//
// A service is a task in every modelled respect — an id, a timeline lane, a
// core while it works, a ticket after every wait — but it has no goroutine.
// A pass is a chain of steps, each run by a clock callback event or by the
// goroutine whose core release granted the service a core, and each ending
// in exactly one of After or Done (or in handing the pass to a goroutine
// that will make that call). Steps must not block.
type Service struct {
	rt   *Runtime
	t    *Task
	ev   vclock.Event
	poll func() // starts one pass

	interval time.Duration // between passes; non-positive = dedicated
	passes   atomic.Int64
	idle     atomic.Int64 // passes that retired nothing

	next      func()        // step the armed event runs
	start     time.Duration // body span start (instrumented runs)
	before    time.Duration // start of the pass in progress
	waitStart time.Duration // wait entry

	reacquireFn, resumedFn func() // bound once: arming allocates nothing

	// The per-service trace track and metric names, built once.
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
func (rt *Runtime) NewService(name string, interval time.Duration) *Service {
	s := &Service{
		rt: rt, interval: interval,
		t:          &Task{rt: rt, label: name, spawned: true},
		track:      obs.PollTrack(name),
		spanName:   "poll:" + name,
		passCtr:    "poll." + name + ".passes",
		retiredCtr: "poll." + name + ".retired",
	}
	s.reacquireFn, s.resumedFn = s.reacquire, s.resumed
	return s
}

// Start spawns the polling task. poll starts one pass: it charges modelled
// time with After, never by blocking (a pass that has to block moves itself
// onto a Clock.Go goroutine), and ends — in the call itself or in a later
// step — with exactly one Done. The first pass runs once the service holds
// a core and the dispatch overhead is paid — before Start returns if a core
// is free now and the overhead is zero.
func (s *Service) Start(poll func()) {
	rt, t := s.rt, s.t
	s.poll = poll
	t.pre = EventCounter{t: t, pre: true}
	t.comp = EventCounter{t: t, n: 1}
	rt.mu.Lock()
	if rt.stopping.Load() {
		rt.mu.Unlock()
		panic("tasking: service started after Shutdown")
	}
	rt.spawnLive++
	rt.running.Add(1)
	rt.stats.Spawned++
	rt.seq++
	t.id = rt.seq
	t.state = stateQueued
	rt.mu.Unlock()

	rt.clk.InitEvent(&s.ev, s.fire)
	begin := func() {
		rt.mu.Lock()
		t.state = stateRunning
		rt.mu.Unlock()
		if rt.rec != nil {
			s.start = rt.clk.Now()
			t.lane = rt.lanes.acquire()
		}
		s.pass()
	}
	rt.cores.acquire(coreWaiter{fn: func() { s.After(rt.cfg.DispatchOverhead, begin) }})
}

// pass begins one polling pass, or ends the service once the runtime is
// shutting down; the service holds a core.
//
//tagalint:hotpath
func (s *Service) pass() {
	if s.rt.stopping.Load() {
		s.exit()
		return
	}
	s.before = s.rt.clk.Now()
	s.poll()
}

// fire is the event callback: it runs the step the event was armed with.
//
//tagalint:hotpath
func (s *Service) fire() {
	next := s.next
	s.next = nil
	next()
}

// After charges d of modelled time to the pass in progress — the service
// keeps its core — and then runs the pass's next step fn. Like Sleep, a
// non-positive d costs nothing and draws no timer sequence: fn runs at once.
//
//tagalint:hotpath
func (s *Service) After(d time.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	s.next = fn
	s.ev.After(d)
}

// Done ends the pass in progress, which retired n completions, and waits
// out the polling period before the next one. Idle passes only bump a
// counter — a dedicated poller makes millions of them and spans for each
// would swamp the trace.
//
//tagalint:hotpath
func (s *Service) Done(n int) {
	rt := s.rt
	s.passes.Add(1)
	if n == 0 {
		s.idle.Add(1)
	}
	if rec := rt.rec; rec != nil {
		rec.Count(s.passCtr, 1)
		if n > 0 {
			rec.Count(s.retiredCtr, int64(n))
			rec.Span(rt.rank, s.track, obs.CatPoll, s.spanName, s.before, rt.clk.Now(), int64(n))
		}
	}
	switch {
	case s.interval > 0:
		s.wait(s.interval)
	case rt.clk.Now() == s.before:
		// Dedicated polling with an idle pass of zero modelled cost:
		// yield briefly so virtual time can advance.
		s.wait(minIdleTick)
	default:
		s.pass()
	}
}

// wait releases the service's core for d > 0 so other tasks can run — the
// wait_for_us runtime API of §V-B — then takes a new ticket, and starts the
// next pass once the service holds a core again.
//
//tagalint:hotpath
func (s *Service) wait(d time.Duration) {
	s.waitStart = s.rt.clk.Now()
	// The timer sequence is drawn before the core is handed on, so whatever
	// the next core holder arms at this instant orders after this wait.
	s.After(d, s.reacquireFn)
	s.rt.cores.release()
}

//tagalint:hotpath
func (s *Service) reacquire() {
	s.rt.cores.acquire(coreWaiter{fn: s.resumedFn})
}

//tagalint:hotpath
func (s *Service) resumed() {
	if rec := s.rt.rec; rec != nil {
		rec.Span(s.rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, "task:wait",
			s.waitStart, s.rt.clk.Now(), s.t.id)
	}
	s.pass()
}

// exit ends the service: its task completes and its core is released.
func (s *Service) exit() {
	rt := s.rt
	if rt.rec != nil {
		rt.rec.Span(rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, s.t.spanName(),
			s.start, rt.clk.Now(), s.t.id)
		rt.lanes.release(s.t.lane)
	}
	rt.finishBody(s.t)
	rt.cores.release()
	rt.running.Done()
}

// Passes returns the number of completed polling passes.
func (s *Service) Passes() int64 { return s.passes.Load() }

// IdlePasses returns how many completed passes retired nothing.
func (s *Service) IdlePasses() int64 { return s.idle.Load() }
