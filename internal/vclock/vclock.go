// Package vclock provides the time substrate for the simulated cluster.
//
// Every component of the stack (fabric, MPI/GASPI models, tasking runtime,
// task-aware libraries, applications) measures and spends time exclusively
// through one clock, the VirtualClock: a conservative discrete-event engine.
// Goroutines taking part in a simulation register with the clock; whenever
// every registered goroutine is parked, the clock jumps to the earliest
// pending timer. This lets thousands of simulated cores run on a single host
// while "time" is the modelled time, which is what the figure reproductions
// report.
//
// No wall clock is offered beside it: everything this repository delivers is
// modelled time, and a single-threaded event-loop executor (ROADMAP item 2)
// cannot ride one. The runnable examples use the virtual clock like the
// figures do.
//
// The only blocking primitive is the Parker, a one-shot parking slot in the
// style of the Go runtime's gopark/goready. Higher-level primitives (mutex,
// condition variable, semaphore, served resource) are built on Parkers in
// package vsync. Code that only ever waits for time (the polling services
// of package core) does not block at all: it arms an Event, a callback timer
// the advancing goroutine runs — a heap push instead of a goroutine park.
//
// # Sharding
//
// The parker/timer table is sharded (clockShards fixed power-of-two shards;
// each parker is pinned to one shard for its lifetime), so the park/unpark
// hot path of thousands of concurrently-sleeping goroutines contends on a
// shard mutex and two process-wide atomics (the active count and the timer
// sequence) instead of one global mutex. The virtual-time advance step
// merges the shard frontiers deterministically: each shard publishes its
// earliest (deadline, seq) pair, the advancer scans shards in fixed index
// order, and the globally smallest (deadline, seq) fires — exactly the
// order a single heap would produce, because seq is drawn from one
// process-wide counter. See ARCHITECTURE.md "Sharded host substrate".
package vclock

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clockShards is the fixed shard count of the parker/timer table. A power
// of two so shard selection is a mask. 16 balances park-path concurrency
// (a 256-node sweep parks thousands of goroutines concurrently) against
// the advance step's frontier scan, which reads one cache line per shard
// per fired event.
const clockShards = 16

// noDeadline is the published frontier of a shard with no pending timers.
const noDeadline = math.MaxInt64

// clockShard is one slice of the parker/timer table. The mutex protects
// the heap, the parked set and the parker state (pending/waiting/woke) of
// every parker pinned to the shard.
type clockShard struct {
	mu     sync.Mutex
	timers timerHeap
	parked map[*Parker]struct{} // parked without a timer, for diagnostics

	// topDL/topSeq publish the shard's frontier — the (deadline, seq) of
	// timers[0], or (noDeadline, 0) when empty — for the advance step's
	// lock-free merge scan. Written under mu whenever the heap top
	// changes; the quiescence argument in advanceLocked explains why the
	// lock-free reads are exact, not approximate.
	topDL  atomic.Int64
	topSeq atomic.Uint64

	// waiters counts the goroutines parked on this shard with a timer armed
	// or on a non-external parker. Written under mu, read by anyWaiter.
	waiters atomic.Int32

	_ [20]byte // padding against false sharing between adjacent shards
}

// refreshTopLocked republishes the shard frontier after a heap mutation.
// Called with s.mu held.
func (s *clockShard) refreshTopLocked() {
	if len(s.timers) == 0 {
		s.topDL.Store(noDeadline)
		s.topSeq.Store(0)
		return
	}
	s.topDL.Store(int64(s.timers[0].deadline))
	s.topSeq.Store(s.timers[0].seq)
}

// VirtualClock is a discrete-event virtual time source.
//
// The clock maintains an "active" count of registered goroutines that are
// currently runnable. Parking (Sleep, Parker.Park) decrements the count;
// when it reaches zero the clock advances to the earliest pending timer and
// fires it, waking its owner. If the count reaches zero with no pending
// timers while goroutines remain parked, the simulation has deadlocked and
// the clock panics with a diagnostic listing the parked goroutines.
//
// Sleep and Parker.Park must only be called from goroutines registered with
// the clock (spawned via Go or Launch, or wrapped in Register/Unregister);
// calling them from an unregistered goroutine would stall virtual time.
type VirtualClock struct {
	now    atomic.Int64  // current virtual time, ns; written only under adv
	active atomic.Int64  // registered and runnable goroutines
	seq    atomic.Uint64 // process-wide timer sequence, breaks deadline ties

	// adv serializes the advance step. Lock order: adv, then shard
	// mutexes in index order; nothing acquires adv while holding a shard
	// mutex.
	adv sync.Mutex

	shardCtr atomic.Uint32 // round-robin parker placement
	shards   [clockShards]clockShard

	// sleepers recycles the parker (and its embedded timer) of Sleep
	// calls. Sleep is the hottest allocation site of the whole simulator
	// (every modelled delay of every courier, resource and rank main
	// passes through it), so this pool removes the dominant per-event
	// garbage. Timers are removed from the shard heap eagerly on wake,
	// so a recycled parker's timer is never still heap-linked.
	sleepers sync.Pool
}

// NewVirtual returns a virtual clock positioned at time zero with no
// registered goroutines.
func NewVirtual() *VirtualClock {
	c := &VirtualClock{}
	for i := range c.shards {
		c.shards[i].parked = make(map[*Parker]struct{})
		c.shards[i].topDL.Store(noDeadline)
	}
	return c
}

// Now reports the virtual time elapsed since the clock started.
func (c *VirtualClock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Register adds the calling goroutine to the clock's active set. It must be
// paired with Unregister. Go-spawned goroutines are registered automatically.
func (c *VirtualClock) Register() {
	c.active.Add(1)
}

// Unregister removes the calling goroutine from the active set.
func (c *VirtualClock) Unregister() {
	if c.active.Add(-1) == 0 {
		c.advance()
	}
}

// Go spawns fn on a new goroutine registered with the clock.
func (c *VirtualClock) Go(fn func()) {
	c.Register()
	go func() {
		defer c.Unregister()
		fn()
	}()
}

// Sleep suspends the caller for d of virtual time; non-positive durations
// return immediately. Sleeping parkers and their timers are recycled
// through a pool: a Sleep can only be woken by its own timer expiry, so
// after the park returns nothing in the clock references either object.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	var p *Parker
	if v := c.sleepers.Get(); v != nil {
		p = v.(*Parker)
	} else {
		p = c.Parker()
	}
	t := p.timerFor(d)
	p.park(t)
	c.sleepers.Put(p)
}

// AllocSeq reserves and returns the next timer sequence number without
// arming a timer. Event-driven service loops (the fabric's sharded couriers)
// stamp each scheduled event with a sequence at creation time and later park
// at the event's (deadline, seq) via Parker.ParkUntil, so the event wakes
// interleave with ordinary same-deadline timers exactly as if a dedicated
// goroutine had armed a Sleep at the moment the event was scheduled — the
// property the simulator's determinism rests on.
func (c *VirtualClock) AllocSeq() uint64 { return c.seq.Add(1) }

// Launch registers n goroutines with c in one step and returns the function
// that starts them, each running body(i) and unregistering when it returns.
// A job launched one Go at a time can see its first goroutines park — and
// virtual time advance, or a deadlock be reported — before the rest exist.
// Between the two calls the clock is held at its current instant.
func (c *VirtualClock) Launch(n int) (start func(body func(i int))) {
	for i := 0; i < n; i++ {
		c.Register()
	}
	return func(body func(i int)) {
		for i := 0; i < n; i++ {
			go func() {
				defer c.Unregister()
				body(i)
			}()
		}
	}
}

// Parker allocates a new parking slot bound to this clock.
func (c *VirtualClock) Parker() *Parker {
	shard := c.shardCtr.Add(1) & (clockShards - 1)
	p := &Parker{c: c, shard: &c.shards[shard], ch: make(chan struct{}, 1)}
	p.t = &timer{p: p}
	return p
}

// timer wakes a parker, or runs an event callback, at a deadline.
type timer struct {
	deadline time.Duration
	seq      uint64
	p        *Parker // the goroutine to wake; nil for a callback event
	fn       func()  // the callback to run; nil for a goroutine timer
	index    int
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) push(t *timer) {
	t.index = len(*h)
	*h = append(*h, t)
	h.up(t.index)
}

func (h *timerHeap) pop() *timer {
	old := *h
	n := len(old)
	t := old[0]
	old.Swap(0, n-1)
	old[n-1] = nil // the spare capacity must not keep a fired event's closure alive
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	t.index = -1
	return t
}

// remove deletes t (present at t.index) from the heap. Timers are removed
// eagerly when their parker is woken by an Unpark instead of the timer, so
// parkers can reuse one timer struct across parks.
func (h *timerHeap) remove(t *timer) {
	i := t.index
	n := len(*h) - 1
	h.Swap(i, n)
	(*h)[n] = nil
	*h = (*h)[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	t.index = -1
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.Less(l, smallest) {
			smallest = l
		}
		if r < n && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.Swap(i, smallest)
		i = smallest
	}
}

// Parker is a one-shot parking slot. At most one goroutine may be parked on
// a Parker at a time. Each parker is pinned to one shard at creation; all of
// its mutable state is protected by that shard's mutex.
type Parker struct {
	c        *VirtualClock
	shard    *clockShard
	ch       chan struct{}
	t        *timer // reusable timer (Sleep, ParkTimeout); never heap-linked between parks
	pending  bool   // Unpark arrived while not parked
	waiting  bool   // a goroutine is parked here
	waking   bool   // an Unpark claimed this park's wake (two-phase wake)
	woke     bool   // last wake was an Unpark (vs timeout)
	external bool
	name     string
}

// SetName attaches a diagnostic label reported on simulated deadlock.
func (p *Parker) SetName(name string) { p.name = name }

// SetExternal marks the parker as woken by an agent outside the simulation
// (e.g. the test driver). External parkers are exempt from virtual-time
// deadlock detection: if only external parkers remain, the clock freezes and
// waits for the Unpark instead of panicking.
func (p *Parker) SetExternal(external bool) { p.external = external }

// timerFor arms the parker's reusable timer for a wake d from now.
//
//tagalint:hotpath
func (p *Parker) timerFor(d time.Duration) *timer {
	t := p.t
	t.deadline = p.c.Now() + d
	t.seq = p.c.seq.Add(1)
	return t
}

// Park blocks the caller until Unpark is (or already was) called.
func (p *Parker) Park() { p.park(nil) }

// ParkUntil blocks until Unpark or until the clock reaches deadline, using
// the caller-supplied timer sequence (from AllocSeq) to order the wake among
// same-deadline timers; it reports whether the wake was an Unpark.
// Re-parking with the same (deadline, seq) after an Unpark wake keeps the
// pending event's place in the global wake order. The deadline may already
// be due — the park then wakes once every earlier same-instant timer has
// fired and every currently-runnable goroutine has parked, which is how
// event loops wait out a wake cascade without losing their place in the
// timer order.
//
//tagalint:hotpath
func (p *Parker) ParkUntil(deadline time.Duration, seq uint64) bool {
	t := p.t
	t.deadline = deadline
	t.seq = seq
	return p.park(t)
}

// ParkTimeout blocks until Unpark or until d elapses. It reports whether
// the wake was an Unpark (true) or timeout (false).
func (p *Parker) ParkTimeout(d time.Duration) bool {
	if d <= 0 {
		// A non-positive timeout still honours a pending Unpark.
		s := p.shard
		s.mu.Lock()
		if p.pending {
			p.pending = false
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		return false
	}
	return p.park(p.timerFor(d))
}

// park blocks until an Unpark or t's expiry wakes it. If t is non-nil it is
// armed before parking and removed from the heap on a non-timer wake.
// Reports whether the wake was an Unpark.
//
//tagalint:hotpath
func (p *Parker) park(t *timer) bool {
	c := p.c
	s := p.shard
	s.mu.Lock()
	if p.pending {
		p.pending = false
		s.mu.Unlock()
		return true
	}
	if p.waiting {
		s.mu.Unlock()
		panic("vclock: concurrent Park on the same Parker")
	}
	if t != nil {
		s.timers.push(t)
		s.refreshTopLocked()
	} else {
		s.parked[p] = struct{}{}
	}
	counted := t != nil || !p.external
	if counted {
		s.waiters.Add(1)
	}
	p.waiting = true
	p.woke = false
	s.mu.Unlock()
	// The timer (or parked-set entry) is published before the decrement,
	// so whichever goroutine observes active==0 sees this shard's full
	// frontier when it scans.
	if c.active.Add(-1) == 0 {
		c.advance()
	}
	s.mu.Lock()
	for p.waiting {
		s.mu.Unlock()
		<-p.ch
		s.mu.Lock()
	}
	if t == nil {
		delete(s.parked, p)
	} else if t.index >= 0 {
		// Woken by an Unpark before the timer fired: remove it eagerly
		// so the struct can be rearmed by the next park.
		s.timers.remove(t)
		s.refreshTopLocked()
	}
	if counted {
		s.waiters.Add(-1)
	}
	woke := p.woke
	s.mu.Unlock()
	return woke
}

// Unpark wakes the parked goroutine, or primes the slot if none is parked
// yet, in which case the next Park returns immediately (binary-semaphore
// semantics). It may be called from any goroutine, registered or not.
//
// The wake has two phases: phase one claims the wake (waking) and publishes
// the active-count increment while the parker still observes waiting==true,
// so the wakee cannot run — and re-park, re-decrementing active — before the
// increment lands; phase two flips waiting and releases the wakee. A second
// Unpark racing the window sees waking and degrades to pending, preserving
// binary-semaphore semantics.
func (p *Parker) Unpark() {
	c := p.c
	s := p.shard
	s.mu.Lock()
	if !p.waiting || p.waking {
		p.pending = true
		s.mu.Unlock()
		return
	}
	p.waking = true
	first := c.active.Add(1) == 1
	s.mu.Unlock()
	if first {
		// This wake transitions the clock out of quiescence, so an
		// advance step may be mid-merge right now. Serialize with it
		// before releasing the woken goroutine: otherwise the wakee
		// could push an earlier timer into a frontier the advancer has
		// already scanned past. (The advancer re-checks active before
		// every fire, so it stops; this handshake just makes the wakee
		// wait for that stop.)
		c.adv.Lock()
		c.adv.Unlock() // empty critical section on purpose: the lock is a barrier
	}
	s.mu.Lock()
	p.waking = false
	p.waiting = false
	p.woke = true
	s.mu.Unlock()
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// advance runs the virtual-time advance step, serialized by c.adv, and
// panics if the simulation deadlocked. The unlock is deferred so that this
// panic, and one raised by an event callback, find c.adv free as they
// unwind: the deferred Unregister of the goroutine they happen to run on
// re-enters advance, and would otherwise block forever and swallow them.
func (c *VirtualClock) advance() {
	c.adv.Lock()
	defer c.adv.Unlock()
	if report := c.advanceLocked(); report != "" {
		panic(report)
	}
}

// advanceLocked merges the shard frontiers and fires timers while the
// clock is quiescent (active == 0). Determinism: seq comes from one
// process-wide counter, so ordering by (deadline, seq) across shards is a
// total order identical to the single-heap order; the fixed index-order
// scan makes the merge itself deterministic.
//
// While active == 0 no registered goroutine is runnable, so no timer can
// be pushed or removed concurrently with the scan — every frontier read
// below is exact (an event callback arms its timers between two scans, on
// this goroutine). The only concurrent mutator is an Unpark from outside
// the simulation; it increments active before its wakee can run, and the
// re-check before each fire plus the !waiting guard keep such races from
// corrupting virtual time. If no timers remain and non-external parkers
// are parked, the simulation is deadlocked: the report is returned
// non-empty and the caller panics with it.
func (c *VirtualClock) advanceLocked() (deadlock string) {
	for c.active.Load() == 0 {
		best := -1
		bestDL := int64(noDeadline)
		var bestSeq uint64
		for i := range c.shards {
			dl := c.shards[i].topDL.Load()
			if dl == noDeadline {
				continue
			}
			sq := c.shards[i].topSeq.Load()
			if best == -1 || dl < bestDL || (dl == bestDL && sq < bestSeq) {
				best, bestDL, bestSeq = i, dl, sq
			}
		}
		if best == -1 {
			if c.internalParked() > 0 {
				return c.deadlockReport()
			}
			return "" // clean termination, or frozen awaiting external wakes
		}
		s := &c.shards[best]
		s.mu.Lock()
		if s.timers[0].fn != nil {
			if !c.anyWaiter() {
				// Nobody is waiting on virtual time: the simulation was
				// abandoned with its services still armed. Leave them
				// in the heap instead of firing them forever.
				s.mu.Unlock()
				return ""
			}
			t := s.timers.pop()
			s.refreshTopLocked()
			if int64(t.deadline) > c.now.Load() {
				c.now.Store(int64(t.deadline))
			}
			// The callback runs here with active held at one: nothing
			// can advance under it, and an Unpark or Go from inside it
			// is an ordinary wake from a running goroutine.
			c.active.Add(1)
			s.mu.Unlock()
			t.fn()
			c.active.Add(-1)
			continue
		}
		t := s.timers.pop()
		s.refreshTopLocked()
		p := t.p
		if !p.waiting || p.waking {
			// A racing external Unpark already woke (or claimed the
			// wake of) the owner; the timer is moot and must not
			// advance time.
			s.mu.Unlock()
			continue
		}
		if int64(t.deadline) > c.now.Load() {
			c.now.Store(int64(t.deadline))
		}
		p.waiting = false
		p.woke = false
		c.active.Add(1)
		select {
		case p.ch <- struct{}{}:
		default:
		}
		s.mu.Unlock()
	}
	return ""
}

// anyWaiter reports whether any goroutine is parked with a timer or on a
// non-external parker. Called with adv held during quiescence, when every
// woken goroutine has already left its park (and its count).
func (c *VirtualClock) anyWaiter() bool {
	for i := range c.shards {
		if c.shards[i].waiters.Load() != 0 {
			return true
		}
	}
	return false
}

// internalParked counts non-external parkers across all shards. Called
// with adv held during quiescence, so the per-shard reads are stable.
func (c *VirtualClock) internalParked() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for p := range s.parked {
			if !p.external {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Event is a reusable callback timer: the event-driven counterpart of a
// goroutine that loops over Sleep. It is armed at most once at a time; its
// callback may re-arm it. The callback runs on whichever goroutine is
// advancing the clock, with virtual time held at the event's deadline, so it
// must not block — no Sleep, Park, Resource.Use or channel wait: a blocked
// callback hangs the simulation without a deadlock report (tagalint's
// taskctx analyzer flags such calls). It may arm events, Unpark parkers and
// spawn goroutines with Go. An Event is pinned to one shard like a parker is.
type Event struct {
	timer
	c     *VirtualClock
	shard *clockShard
}

// NewEvent allocates a reusable callback timer bound to this clock: each
// After arms it once and fn runs when it expires.
func (c *VirtualClock) NewEvent(fn func()) *Event {
	shard := c.shardCtr.Add(1) & (clockShards - 1)
	e := &Event{c: c, shard: &c.shards[shard]}
	e.fn = fn
	e.index = -1
	return e
}

// After arms the event to fire d from now. The timer sequence is drawn
// here, exactly where a Sleep(d) would draw it, so the callback takes that
// Sleep's place among same-deadline wakes. A non-positive d fires at the
// current instant, after every timer armed earlier for it.
//
//tagalint:hotpath
func (e *Event) After(d time.Duration) {
	if d < 0 {
		d = 0
	}
	deadline := e.c.Now() + d
	seq := e.c.seq.Add(1)
	s := e.shard
	s.mu.Lock()
	if e.index >= 0 {
		s.mu.Unlock()
		panic("vclock: After on an Event that is already armed")
	}
	e.deadline, e.seq = deadline, seq
	s.timers.push(&e.timer)
	s.refreshTopLocked()
	s.mu.Unlock()
}

func (c *VirtualClock) deadlockReport() string {
	var names []string
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for p := range s.parked {
			total++
			n := p.name
			if n == "" {
				n = "<unnamed>"
			}
			names = append(names, n)
		}
		s.mu.Unlock()
	}
	sort.Strings(names)
	return fmt.Sprintf("vclock: deadlock at t=%v: %d goroutine(s) parked with no pending timers: %v",
		c.Now(), total, names)
}
