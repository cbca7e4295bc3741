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
//
// A service whose passes would find nothing goes dormant (sleep): it skips
// its passes, drawing no timer and taking no core, until an input that can
// change a pass wakes it (rouse), and then books the skipped passes and
// re-enters its polling grid where they had got to (replay). DESIGN.md §11
// says why the skipped passes cannot be told from polled ones.
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
	steps     int           // After calls of the pass in progress
	stepCost  time.Duration // what each of them charged; -1 if they differ

	// Dormancy. A dormant service's grid is the schedule its skipped
	// passes keep: pass k starts at w1 + (k−1)·period and makes steps
	// steps of stepCost each. dormant is guarded by the core scheduler's
	// lock; asleep mirrors it for Wake's unlocked check.
	resume     func(done int) func() // re-enters an idle pass; nil: idle passes charge nothing
	dormant    bool
	asleep     atomic.Bool
	w1, period time.Duration
	key1       vclock.Key // the wait for w1, drawn as the service went dormant
	// What the wake books (replay): passes skipped, their wait spans, and
	// the step of the pass in progress it re-enters at (0: the wait).
	booked, waits int64
	at            int

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
// would cost what the one that just ended did. Such a service goes dormant
// instead of polling (Done, sleep), and the library promises to call Wake
// at every input that could break quiet, so that a dormant service is
// woken before any pass would see the input. quiet runs as a step: it must
// not block.
//
// resume re-enters an idle pass after its first done steps: it sets the
// library's pass state as those steps would have left it and returns the
// step that comes next. It runs as a step and must not block. It may be
// nil only for a library whose idle pass charges no time, which a wake
// never re-enters mid-way.
func (rt *Runtime) NewService(name string, interval time.Duration, quiet func() bool, resume func(done int) func()) *Service {
	s := &Service{
		rt: rt, interval: interval, quiet: quiet, resume: resume,
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
	rt.seq++
	t.id = rt.seq
	t.state = stateQueued
	rt.mu.Unlock()
	rt.cores.mu.Lock()
	rt.cores.svcs = append(rt.cores.svcs, s)
	rt.cores.mu.Unlock()

	rt.clk.InitRankedEvent(&s.ev, s.fire)
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
	s.steps, s.stepCost = 0, 0
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
	if s.steps++; s.steps == 1 {
		s.stepCost = d
	} else if d != s.stepCost {
		s.stepCost = -1
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

// sleep makes the service dormant after an idle pass, if it may. The
// library must have nothing to poll (quiet), and the pass must have
// charged its time in equal steps. No task
// may hold or wait for a core, and unless every service can hold a core
// at once, every other service must be dormant: then no pass of the
// service would have waited for a core, and any task that draws a ticket
// wakes it first (coreSched.acquire). A dormant service releases its core
// and arms nothing. It keeps the grid its wait_for_us would have drawn —
// w1, then one pass every period (the interval plus the pass's length) —
// and the key of the wait it did not arm.
//
//tagalint:hotpath
func (s *Service) sleep() bool {
	rt := s.rt
	if s.quiet == nil || s.stepCost < 0 {
		return false
	}
	now := rt.clk.Now()
	if now-s.before != time.Duration(s.steps)*s.stepCost || !s.quiet() {
		return false
	}
	cs := rt.cores
	cs.mu.Lock()
	if rt.stopping.Load() || cs.tasks > 0 || len(cs.svcs) > cs.n && cs.dormant < len(cs.svcs)-1 {
		cs.mu.Unlock()
		return false
	}
	s.dormant = true
	s.asleep.Store(true)
	cs.dormant++
	s.w1, s.period = now+s.interval, s.interval+now-s.before
	s.key1 = rt.clk.Draw(s.interval)
	cs.free++
	cs.grantUnlock()
	return true
}

// Wake tells the service that an input may have changed what its next pass
// would do: a library calls it on every such input (NewService). A dormant
// service re-enters its grid (rouse); for any other it costs one atomic
// load.
//
//tagalint:hotpath
func (s *Service) Wake() {
	if !s.asleep.Load() {
		return
	}
	cs := s.rt.cores
	cs.mu.Lock()
	if s.dormant {
		s.rouse()
	}
	cs.mu.Unlock()
}

// rouse wakes a dormant service at now. It finds the step its skipped
// schedule had not yet run (pending) and arms the service's event with the
// key that step would have drawn; if that step is inside a pass, the
// service takes the core the pass would hold. Once the runtime is stopping
// the pass in progress ends idle and the next one exits, so the service
// skips to that pass's wait. Callers hold cs.mu.
func (s *Service) rouse() {
	cs := s.rt.cores
	s.dormant = false
	s.asleep.Store(false)
	cs.dormant--
	k, j, undecided := s.pending()
	if undecided {
		s.rt.undecided.Add(1)
	}
	stopping := s.rt.stopping.Load()
	if j > 0 && stopping {
		k, j = k+1, 0
	}
	s.book(k - 1)
	s.booked, s.waits, s.at = k-1, k-1, j
	if j > 0 {
		s.waits = k
		s.before = s.w1 + time.Duration(k-1)*s.period
		s.steps = j
		cs.free--
	}
	// Armed even at now: the step must not run under cs.mu, and it fires
	// once the woken caller parks, as the step it stands for would have.
	// Where it fires among the timers due with it matters only while the
	// runtime runs: a stopping one's service only exits, which nothing that
	// fires beside it can see.
	s.next = s.replayFn
	if k == 1 && j == 0 {
		s.ev.At(s.key1)
	} else if due, drawn := s.step(k, j); s.ev.AtDrawn(due, drawn) && !stopping {
		s.rt.undecided.Add(1)
	}
}

// pending returns the first step of the skipped schedule that has not run
// by now: step j of pass k, passes counting from 1 at w1, step 0 being the
// wait that ends as the pass starts and step j ≥ 1 the end of the pass's
// j-th charge. A step due now has run if its key orders before the timer
// that resumed the caller (vclock.Fired); where the clock cannot tell, the
// step is taken as not run and reported undecided (Stats.UndecidedWakes).
func (s *Service) pending() (k int64, j int, undecided bool) {
	now := s.rt.clk.Now()
	if now < s.w1 {
		return 1, 0, false
	}
	k = int64((now-s.w1)/s.period) + 1
	o := (now - s.w1) % s.period
	if o > s.period-s.interval {
		return k + 1, 0, false
	}
	if o > 0 {
		j = int(o / s.stepCost)
		if o%s.stepCost != 0 {
			return k, j + 1, false
		}
	}
	var fired bool
	if k == 1 && j == 0 {
		fired = s.rt.clk.Fired(s.key1)
	} else {
		fired, undecided = s.ev.FiredDrawn(s.step(k, j))
	}
	switch {
	case !fired:
		return k, j, undecided
	case j == s.steps:
		return k + 1, 0, false
	}
	return k, j + 1, false
}

// step returns when step j of pass k is due and when it would have been
// drawn: where the step before it ran — the wait as the pass before ended,
// a charge as the charge before it ended. The wait for w1 alone was drawn
// for real, as the service went dormant (key1).
func (s *Service) step(k int64, j int) (due, drawn time.Duration) {
	due = s.w1 + time.Duration(k-1)*s.period
	if j == 0 {
		return due, due - s.interval
	}
	due += time.Duration(j) * s.stepCost
	return due, due - s.stepCost
}

// book counts k skipped passes as idle passes.
func (s *Service) book(k int64) {
	s.passes.Add(k)
	s.idle.Add(k)
	s.rt.skipped.Add(k)
}

// replay runs at the step a roused service re-enters at: it records the
// counter and the wait spans the passes rouse booked would have recorded,
// and runs the step.
//
//tagalint:hotpath
func (s *Service) replay() {
	rt := s.rt
	if rec := rt.rec; rec != nil {
		if s.booked > 0 {
			rec.Count(s.passCtr, s.booked)
		}
		for i := int64(0); i < s.waits; i++ {
			w := s.w1 + time.Duration(i)*s.period
			rec.Span(rt.rank, obs.TaskTrack(s.t.lane), obs.CatTask, "task:wait",
				w-s.interval, w, s.t.id)
		}
	}
	if s.at > 0 {
		s.resume(s.at - 1)()
		return
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
	s.ev.Unrank()
	rt.finishBody(s.t)
	rt.cores.release()
	rt.running.Done()
}

// Passes returns the number of completed polling passes, skipped ones
// included.
func (s *Service) Passes() int64 { return s.passes.Load() + s.skippedByNow() }

// IdlePasses returns how many completed passes retired nothing.
func (s *Service) IdlePasses() int64 { return s.idle.Load() + s.skippedByNow() }

// skippedByNow returns how many passes a dormant service has skipped so
// far, which its wake has yet to book.
func (s *Service) skippedByNow() int64 {
	if !s.asleep.Load() {
		return 0
	}
	cs := s.rt.cores
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !s.dormant {
		return 0
	}
	k, _, _ := s.pending()
	return k - 1
}
