package tasking

import (
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Service is a spawned service task (nanos6_spawn_function): it has no
// dependencies, does not count towards TaskWait, and is expected to Exit
// once Stopping() reports true. The task-aware libraries run their polling
// tasks this way.
//
// A service is a task in every modelled respect — an id, a timeline lane, a
// core while it works, a ticket after every WaitFor — but it has no
// goroutine. It is a chain of steps, each run by a clock callback event or by
// the goroutine whose core release granted it a core, and each ending in
// exactly one of After, WaitFor or Exit (or in handing the service to a
// goroutine that will make that call). Steps must not block.
type Service struct {
	rt *Runtime
	t  *Task
	ev vclock.Event

	next      func()        // step the armed event runs
	resume    func()        // step WaitFor continues with once a core is held
	start     time.Duration // body span start (instrumented runs)
	waitStart time.Duration // WaitFor entry

	reacquireFn, resumedFn func() // bound once: arming allocates nothing
}

// Spawn starts a service task. run is its first step, called once the
// service holds a core and the dispatch overhead is paid — before Spawn
// returns if a core is free now and the overhead is zero.
func (rt *Runtime) Spawn(label string, run func(*Service)) *Service {
	t := &Task{rt: rt, label: label, spawned: true}
	t.pre = EventCounter{t: t, pre: true}
	t.comp = EventCounter{t: t, n: 1}
	rt.mu.Lock()
	if rt.stopping.Load() {
		rt.mu.Unlock()
		panic("tasking: Spawn after Shutdown")
	}
	rt.spawnLive++
	rt.stats.Spawned++
	rt.seq++
	t.id = rt.seq
	t.state = stateQueued
	rt.mu.Unlock()

	s := &Service{rt: rt, t: t}
	rt.clk.InitEvent(&s.ev, s.fire)
	s.reacquireFn, s.resumedFn = s.reacquire, s.resumed
	begin := func() {
		rt.mu.Lock()
		t.state = stateRunning
		rt.mu.Unlock()
		if rt.rec != nil {
			s.start = rt.clk.Now()
			t.lane = rt.lanes.acquire()
		}
		run(s)
	}
	rt.cores.acquireFn(func() { s.After(rt.cfg.DispatchOverhead, begin) })
	return s
}

// fire is the event callback: it runs the step the event was armed with.
//
//tagalint:hotpath
func (s *Service) fire() {
	next := s.next
	s.next = nil
	next()
}

// After keeps the service on its core for d of modelled time — the cost of
// the work just done — and then runs fn. Like Sleep, a non-positive d costs
// nothing and draws no timer sequence: fn runs at once.
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

// WaitFor releases the service's core for approximately d so other tasks
// can run — the wait_for_us runtime API of §V-B — then takes a new ticket,
// and runs fn once the service holds a core again.
//
//tagalint:hotpath
func (s *Service) WaitFor(d time.Duration, fn func()) {
	s.waitStart = s.rt.clk.Now()
	s.resume = fn
	// The timer sequence is drawn before the core is handed on, so whatever
	// the next core holder arms at this instant orders after this wait.
	if d > 0 {
		s.After(d, s.reacquireFn)
	}
	s.rt.cores.release()
	if d <= 0 {
		s.reacquire()
	}
}

//tagalint:hotpath
func (s *Service) reacquire() {
	s.rt.cores.acquireFn(s.resumedFn)
}

//tagalint:hotpath
func (s *Service) resumed() {
	if rec := s.rt.rec; rec != nil {
		rec.Span(s.rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, "task:wait",
			s.waitStart, s.rt.clk.Now(), s.t.id)
	}
	s.resume()
}

// Exit ends the service: its task completes and its core is released.
func (s *Service) Exit() {
	rt := s.rt
	if rt.rec != nil {
		rt.rec.Span(rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, s.t.spanName(),
			s.start, rt.clk.Now(), s.t.id)
		rt.lanes.release(s.t.lane)
	}
	rt.finishBody(s.t)
	rt.cores.release()
}
