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
// that will make that call). Steps must not block. Once the runtime is
// closed, a service with nothing to poll goes dormant and skips its passes
// until Shutdown (sleep).
type Service struct {
	rt   *Runtime
	t    *Task
	ev   vclock.Event
	poll func() // starts one pass

	quiet    func() bool   // the library has nothing to poll; nil: never
	interval time.Duration // between passes; non-positive = dedicated
	passes   atomic.Int64
	idle     atomic.Int64 // passes that retired nothing

	next      func()        // step the armed event runs
	start     time.Duration // body span start (instrumented runs)
	before    time.Duration // start of the pass in progress
	waitStart time.Duration // wait entry

	// Dormancy (sleep, rouse, replay): a dormant service skips the idle
	// passes of its grid — the first at w1, then one every period — and
	// books the skipped ones when it wakes. dormant is guarded by rt.mu.
	dormant    bool
	w1, period time.Duration
	mark       uint64 // the clock's last sequence number when the service went dormant
	skipped    int64  // the passes the exit wake books

	reacquireFn, resumedFn, replayFn func() // bound once: arming allocates nothing

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
//
// quiet, if not nil, reports that the library has nothing to poll: no
// pass can retire anything or change what the next one does, so every pass
// would cost what the one that just ended did. Once the runtime is closed
// (Close) such a service goes dormant instead of polling (Done). quiet runs
// as a step: it must not block.
func (rt *Runtime) NewService(name string, interval time.Duration, quiet func() bool) *Service {
	s := &Service{
		rt: rt, interval: interval, quiet: quiet,
		t:          &Task{rt: rt, label: name, spawned: true},
		track:      obs.PollTrack(name),
		spanName:   "poll:" + name,
		passCtr:    "poll." + name + ".passes",
		retiredCtr: "poll." + name + ".retired",
	}
	s.reacquireFn, s.resumedFn, s.replayFn = s.reacquire, s.resumed, s.replay
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
	rt.services = append(rt.services, s)
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
// out the polling period before the next one, or goes dormant (sleep).
// Idle passes only bump a counter — a dedicated poller makes millions of
// them and spans for each would swamp the trace.
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
		if n == 0 && s.sleep() {
			return
		}
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

// sleep makes the service dormant after an idle pass, if it may: the
// runtime is closed and not yet stopping, every service can hold a core at
// once, and the library has nothing to poll. A dormant service releases
// its core and arms nothing. Every pass it skips would have run on the
// grid its wait_for_us draws — the first at w1, one every period (the
// interval plus the cost of a pass, which nothing can change while the
// library stays quiet) — and touched nothing but the service's own
// counters and trace, because the runtime is closed: no task can hand the
// library work, and no pass waits for a core. Shutdown wakes it (rouse).
//
//tagalint:hotpath
func (s *Service) sleep() bool {
	rt := s.rt
	if s.quiet == nil || !rt.closed.Load() || !s.quiet() {
		return false
	}
	now := rt.clk.Now()
	rt.mu.Lock()
	if rt.stopping.Load() || len(rt.services) > rt.cfg.Cores {
		rt.mu.Unlock()
		return false
	}
	s.dormant = true
	s.w1, s.period = now+s.interval, s.interval+now-s.before
	s.mark = rt.clk.Seq()
	rt.mu.Unlock()
	rt.cores.release()
	return true
}

// rouse arms a dormant service at its exit instant, the first wake of its
// grid whose pass would have seen the runtime stopping: the first wake at
// or after now, unless that wake is at now and fired before r, the timer
// that resumed Shutdown's caller (wokeFirst) — then its pass ran and the
// next wake exits. Callers hold rt.mu.
func (s *Service) rouse(r vclock.Key) {
	now := s.rt.clk.Now()
	var k int64 // grid steps from w1 to the exit wake: the passes skipped
	if now > s.w1 {
		k = int64((now - s.w1 + s.period - 1) / s.period)
	}
	w := s.w1 + time.Duration(k)*s.period
	if w == now && s.wokeFirst(k, w, r) {
		k++
		w += s.period
	}
	s.dormant = false
	s.skipped = k
	// Armed even at now: the wake must not run under rt.mu, and it fires
	// once Shutdown's caller parks, as the wake it stands for would have.
	s.next = s.replayFn
	s.ev.After(w - now)
}

// wokeFirst reports whether the grid wake at w, k periods after w1, would
// have fired before r, which has the same deadline: whether its sequence
// number would have been drawn before r's. The wake at w1 would have drawn
// it where sleep read the clock's last one, so it is smaller than r's if r
// drew later. A later wake would have drawn it one interval before w, at
// the end of the skipped pass before it, so it is smaller than r's if r was
// drawn at a later instant. Two draws at one instant cannot be told apart
// there, nor can anything from a resumer whose draw instant the clock did
// not keep (a stream item's; in cluster.Run's epilogue the main is resumed
// from its barrier, by a fabric event or its own timer): such an exit is
// decided as a later draw for the wake, and counted
// (Stats.UndecidedExits). Callers hold rt.mu.
func (s *Service) wokeFirst(k int64, w time.Duration, r vclock.Key) bool {
	if k == 0 {
		return r.Seq > s.mark
	}
	switch drawn := w - s.interval; {
	case r.Drawn == vclock.NotDrawn || drawn == r.Drawn:
		s.rt.stats.UndecidedExits++
	case drawn < r.Drawn:
		return true
	}
	return false
}

// replay runs at a roused service's exit wake: it books the passes the
// service skipped as idle passes, with the counter and the wait spans each
// would have recorded, and takes up the wait that ends now.
//
//tagalint:hotpath
func (s *Service) replay() {
	rt, k := s.rt, s.skipped
	s.passes.Add(k)
	s.idle.Add(k)
	if rec := rt.rec; rec != nil && k > 0 {
		rec.Count(s.passCtr, k)
		for i := int64(0); i < k; i++ {
			w := s.w1 + time.Duration(i)*s.period
			rec.Span(rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, "task:wait",
				w-s.interval, w, s.t.id)
		}
	}
	s.waitStart = rt.clk.Now() - s.interval
	s.reacquire()
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
