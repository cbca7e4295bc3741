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
// style of the Go runtime's gopark/goready. Package vsync builds its two
// primitives on Parkers: Resource, a served resource, and Queue, a FIFO
// whose consumer parks. Code that only ever waits for time (the polling
// services and step tasks of package tasking, every step of the fabric's
// state machines) does not block at all: it arms an Event, a callback timer
// the advancing goroutine runs — a heap push instead of a goroutine park.
// An owner with a run of such callbacks (a fabric link and the messages
// propagating off it) pushes them onto a Stream instead, which holds one
// clock entry for all of them. The clock's (deadline, seq) queue is the
// simulator's only event queue.
//
// # One lock, one order
//
// Everything the clock pops sits behind one mutex: a 4-ary heap whose
// (deadline, seq) keys are stored inline beside the timer pointer, and a few
// FIFO lanes for callback events. Virtual time never runs backwards and seq
// only grows, so events armed with one constant delay d arrive already
// sorted by (now+d, seq): a lane is a ring per distinct d, pushed at the
// tail and popped at the head in O(1). A key that would land behind its
// lane's tail (two goroutines racing between the seq draw and the lock) or
// finds every lane taken goes to the heap instead. A stream keeps its items
// sorted by insertion and its one heap entry keyed to its head. The advance
// step fires the minimum over the heap top and the lane heads, which is
// exactly the order a single heap holding every key would produce. See
// DESIGN.md §11.
package vclock

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// VirtualClock is a discrete-event virtual time source.
//
// The clock maintains an "active" count of registered goroutines that are
// currently runnable. Parking (Sleep, Parker.Park) decrements the count;
// when it reaches zero the clock advances to the earliest pending timer and
// fires it, waking its owner. If the count reaches zero with no pending
// timers while goroutines remain parked, the simulation has deadlocked: one
// parked goroutine is woken and panics in Park with a diagnostic listing
// them all, so the report surfaces where the caller of a wait can recover
// it.
//
// Sleep and Parker.Park must only be called from goroutines registered with
// the clock (spawned via Go or Launch, or wrapped in Register/Unregister);
// calling them from an unregistered goroutine would stall virtual time.
type VirtualClock struct {
	now    atomic.Int64  // current virtual time, ns; written only under adv
	active atomic.Int64  // registered and runnable goroutines
	seq    atomic.Uint64 // the last timer sequence drawn, breaks deadline ties (Key)

	// adv serializes the advance step. Lock order: adv, then mu; nothing
	// acquires adv while holding mu.
	adv sync.Mutex

	// mu guards every pending timer (heap and lanes), the parked set, the
	// waiter count and the state (pending/waiting/waking/woke) of every
	// parker of this clock.
	mu     sync.Mutex
	timers timerHeap
	lanes  [eventLanes]lane
	parked map[*Parker]struct{} // parked without a timer, for diagnostics
	// waiters counts the goroutines parked with a timer or on a
	// non-external parker. A woken goroutine leaves the count as it leaves
	// park, so during quiescence the count is exact.
	waiters int
	// deadlock is the report of a deadlock the advance step found, handed
	// to the goroutine parked on deadlockTo, which panics with it.
	deadlock   string
	deadlockTo *Parker
	// fired is the key and rank of the timer the advance step fired last
	// (Fired), kept without the timer, which the clock must not keep alive.
	fired struct {
		deadline time.Duration
		seq      uint64
		rank     uint32
	}
	// ranked holds the ranked events (InitRankedEvent), rank r at r−1.
	ranked []*Event

	// sleepers recycles the parker (and its embedded timer) of Sleep
	// calls and of PooledParker's one-shot waits. Sleep is the hottest
	// allocation site of the whole simulator (every modelled delay of
	// every resource and rank main passes through it), so this pool
	// removes the dominant per-event garbage. Timers are removed from the
	// heap eagerly on wake, so a recycled parker's timer is never still
	// heap-linked.
	sleepers sync.Pool
}

// NewVirtual returns a virtual clock positioned at time zero with no
// registered goroutines.
func NewVirtual() *VirtualClock {
	return &VirtualClock{parked: make(map[*Parker]struct{})}
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
	p := c.PooledParker()
	p.park(p.timerFor(d))
	c.PutParker(p)
}

// PooledParker returns a parker from the pool Sleep recycles its own
// through, for a one-shot wait; PutParker returns it once the wait is
// over. The waker must drop every reference to the parker before it
// unparks it: Unpark touches nothing of it after the parked goroutine can
// see its wake but a token on its channel, which a later Park drains and
// re-checks. A pooled parker keeps the name its last user gave it.
func (c *VirtualClock) PooledParker() *Parker {
	if p, _ := c.sleepers.Get().(*Parker); p != nil {
		return p
	}
	return c.Parker()
}

// PutParker returns a parker PooledParker handed out, once its wait is
// over.
func (c *VirtualClock) PutParker(p *Parker) { c.sleepers.Put(p) }

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
	p := &Parker{c: c, ch: make(chan struct{}, 1)}
	p.t = &timer{p: p}
	return p
}

// timer wakes a parker, or runs an event callback, at a deadline. It is 48
// bytes, one size class: a field more would put it in the next. Its seq
// also says when it was drawn (Key), so no field records that.
type timer struct {
	deadline time.Duration
	seq      uint64
	p        *Parker // the goroutine to wake; nil for a callback event
	fn       func()  // the callback to run; nil for a goroutine timer
	index    int     // heap position, or unarmed / inLane
	rank     uint32  // a ranked event's rank (InitRankedEvent); 0 for any other timer
}

const (
	unarmed = -1 // timer.index of a timer in no queue
	inLane  = -2 // timer.index of an event queued in a lane
)

// timerEnt is one queued timer with its order key stored inline, so that
// ordering two entries loads neither timer.
type timerEnt struct {
	deadline time.Duration
	seq      uint64
	t        *timer
}

// before orders two entries by key. Only a ranked event placed after or
// before another's key (Event.AtDrawn) shares that key, and ranks order the
// two.
func (a timerEnt) before(b timerEnt) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.t.rank < b.t.rank
}

// timerHeap is a 4-ary min-heap on (deadline, seq). Each queued timer's
// index tracks its position, which remove needs.
type timerHeap []timerEnt

func (h *timerHeap) push(t *timer) {
	*h = append(*h, timerEnt{})
	h.up(len(*h)-1, timerEnt{t.deadline, t.seq, t})
}

// remove deletes the entry at i: 0 pops the earliest timer; a parker woken
// by an Unpark removes its own timer eagerly, so that parkers can reuse one
// timer struct across parks. The vacated slot is zeroed: spare capacity must
// not keep a fired event's closure alive.
func (h *timerHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].t.index = unarmed
	last := old[n]
	old[n] = timerEnt{}
	*h = old[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(old[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up places e at or above the hole i.
func (h timerHeap) up(i int, e timerEnt) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].t.index = i
		i = parent
	}
	h[i] = e
	e.t.index = i
}

// down places e at or below the hole i.
func (h timerHeap) down(i int, e timerEnt) {
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for j := first + 1; j < min(first+4, len(h)); j++ {
			if h[j].before(h[least]) {
				least = j
			}
		}
		if !h[least].before(e) {
			break
		}
		h[i] = h[least]
		h[i].t.index = i
		i = least
	}
	h[i] = e
	e.t.index = i
}

// eventLanes is the number of constant-delay FIFO lanes. The polling
// services arm their events with three distinct delays (dispatch overhead,
// request-test cost, polling period); anything beyond the lanes (the
// fabric's per-message delays) falls back to the heap, which is always
// correct.
const eventLanes = 4

// lane queues callback events armed with one delay d. Its entries are in
// (deadline, seq) order by construction: pushEventLocked appends only keys
// beyond the tail. Live entries are buf[head:].
type lane struct {
	d    time.Duration
	buf  []timerEnt
	head int
}

func (l *lane) empty() bool { return l.head == len(l.buf) }

// push appends e, compacting the ring in place when its popped prefix is at
// least half of a full buffer, so a lane in steady state never allocates.
//
//tagalint:hotpath
func (l *lane) push(e timerEnt) {
	if len(l.buf) == cap(l.buf) && l.head > 0 && l.head >= len(l.buf)/2 {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf, l.head = l.buf[:n], 0
	}
	//lint:ignore hotalloc the ring grows to the lane's high-water mark and is then compacted in place
	l.buf = append(l.buf, e)
	e.t.index = inLane
}

// pop removes the head entry, zeroing its slot like timerHeap.remove does.
//
//tagalint:hotpath
func (l *lane) pop() {
	l.buf[l.head].t.index = unarmed
	l.buf[l.head] = timerEnt{}
	l.head++
	if l.empty() {
		l.buf, l.head = l.buf[:0], 0
	}
}

// pushEventLocked queues a callback event armed with delay d: on the lane
// keyed d (an empty lane is re-keyed) if its key lands beyond that lane's
// tail, else on the heap. Callers hold c.mu.
//
//tagalint:hotpath
func (c *VirtualClock) pushEventLocked(t *timer, d time.Duration) {
	e := timerEnt{t.deadline, t.seq, t}
	var to *lane
	for i := range c.lanes {
		l := &c.lanes[i]
		if !l.empty() && l.d == d {
			to = l
			break
		}
		if to == nil && l.empty() {
			to = l
		}
	}
	// A key not beyond the tail would break the lane's order: two arms
	// raced between the seq draw and the lock.
	if to == nil || !to.empty() && !to.buf[len(to.buf)-1].before(e) {
		c.timers.push(t)
		return
	}
	to.d = d
	to.push(e)
}

// Parker is a one-shot parking slot. At most one goroutine may be parked on
// a Parker at a time. All of its mutable state is protected by the clock's
// mutex.
type Parker struct {
	c        *VirtualClock
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

// ParkTimeout blocks until Unpark or until d elapses. It reports whether
// the wake was an Unpark (true) or timeout (false).
func (p *Parker) ParkTimeout(d time.Duration) bool {
	if d <= 0 {
		// A non-positive timeout still honours a pending Unpark.
		c := p.c
		c.mu.Lock()
		woke := p.pending
		p.pending = false
		c.mu.Unlock()
		return woke
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
	c.mu.Lock()
	if p.pending {
		p.pending = false
		c.mu.Unlock()
		return true
	}
	if p.waiting {
		c.mu.Unlock()
		panic("vclock: concurrent Park on the same Parker")
	}
	if t != nil {
		c.timers.push(t)
	} else {
		c.parked[p] = struct{}{}
	}
	counted := t != nil || !p.external
	if counted {
		c.waiters++
	}
	p.waiting = true
	p.woke = false
	c.mu.Unlock()
	// The timer (or parked-set entry) is published before the decrement,
	// so whichever goroutine observes active==0 finds it queued.
	if c.active.Add(-1) == 0 {
		c.advance()
	}
	c.mu.Lock()
	for p.waiting {
		c.mu.Unlock()
		<-p.ch
		c.mu.Lock()
	}
	if t == nil {
		delete(c.parked, p)
	} else if t.index >= 0 {
		// Woken by an Unpark before the timer fired: remove it eagerly
		// so the struct can be rearmed by the next park.
		c.timers.remove(t.index)
	}
	if counted {
		c.waiters--
	}
	woke := p.woke
	if c.deadlockTo == p {
		c.raiseDeadlockLocked()
	}
	c.mu.Unlock()
	return woke
}

// raiseDeadlockLocked panics with the deadlock report the advance step
// handed to the calling goroutine's parker. Callers hold c.mu, which it
// releases first.
func (c *VirtualClock) raiseDeadlockLocked() {
	report := c.deadlock
	c.deadlockTo, c.deadlock = nil, ""
	c.mu.Unlock()
	panic(report)
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
	c.mu.Lock()
	if !p.waiting || p.waking {
		p.pending = true
		c.mu.Unlock()
		return
	}
	p.waking = true
	first := c.active.Add(1) == 1
	c.mu.Unlock()
	if first {
		// This wake transitions the clock out of quiescence, so an
		// advance step may be running right now. Serialize with it
		// before releasing the woken goroutine: otherwise the wakee
		// could arm an earlier timer than the one the advancer is about
		// to fire. (The advancer re-checks active before every fire, so
		// it stops; this handshake just makes the wakee wait for that
		// stop.)
		c.adv.Lock()
		c.adv.Unlock() // empty critical section on purpose: the lock is a barrier
	}
	c.mu.Lock()
	p.waking = false
	p.waiting = false
	p.woke = true
	c.mu.Unlock()
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// advance runs the virtual-time advance step, serialized by c.adv. A
// deadlock is not raised here: the goroutine that made the clock quiescent
// may be one nobody can recover on (a task body's goroutine on its way
// out), so advanceLocked hands the report to a parked goroutine instead,
// which panics in Park. The unlock is deferred so that a panic raised by an
// event callback finds c.adv free as it unwinds: the deferred Unregister of
// the goroutine it happens to run on re-enters advance, and would otherwise
// block forever and swallow it.
func (c *VirtualClock) advance() {
	c.adv.Lock()
	defer c.adv.Unlock()
	c.advanceLocked()
}

// advanceLocked fires timers in (deadline, seq) order while the clock is
// quiescent (active == 0). Determinism: seq comes from one counter that
// only grows (Key), each lane is sorted by construction and the heap by definition,
// and a stream's heap entry carries its smallest key, so the minimum over
// the heap top and the lane heads is the timer a single heap holding all of
// them would pop.
//
// While active == 0 no registered goroutine is runnable, so no timer can
// be pushed or removed between two iterations (an event callback arms its
// timers on this goroutine). The only concurrent mutator is an Unpark from
// outside the simulation; it increments active before its wakee can run,
// and the re-check before each fire plus the !waiting guard keep such races
// from corrupting virtual time. If no timers remain and non-external
// parkers are parked, the simulation is deadlocked: the parked goroutine
// whose name sorts first is woken with the report and panics with it.
func (c *VirtualClock) advanceLocked() {
	for c.active.Load() == 0 {
		c.mu.Lock()
		var first timerEnt
		var from *lane // the lane holding first; nil: the heap
		if len(c.timers) > 0 {
			first = c.timers[0]
		}
		for i := range c.lanes {
			l := &c.lanes[i]
			if !l.empty() && (first.t == nil || l.buf[l.head].before(first)) {
				first, from = l.buf[l.head], l
			}
		}
		t := first.t
		if t == nil {
			// A deadlock, a clean termination, or frozen awaiting
			// external wakes.
			c.deadlockLocked()
			c.mu.Unlock()
			return
		}
		if t.fn != nil && c.waiters == 0 {
			// Nobody is waiting on virtual time: the simulation was
			// abandoned with its services still armed. Leave them
			// queued instead of firing them forever.
			c.mu.Unlock()
			return
		}
		if from != nil {
			from.pop()
		} else {
			c.timers.remove(0)
		}
		p := t.p
		if p != nil && (!p.waiting || p.waking) {
			// A racing external Unpark already woke (or claimed the wake
			// of) the owner; the timer is moot and must not advance time.
			c.mu.Unlock()
			continue
		}
		if int64(first.deadline) > c.now.Load() {
			c.moveTo(first.deadline)
		}
		c.fired.deadline, c.fired.seq, c.fired.rank = first.deadline, first.seq, t.rank
		c.active.Add(1)
		if p != nil {
			p.waiting = false
			p.woke = false
			select {
			case p.ch <- struct{}{}:
			default:
			}
			c.mu.Unlock()
			continue
		}
		// The callback runs here, outside c.mu, with active held at one:
		// nothing can advance under it, and an Unpark or Go from inside
		// it is an ordinary wake from a running goroutine.
		c.mu.Unlock()
		t.fn()
		c.active.Add(-1)
	}
}

// deadlockLocked does nothing unless a non-external parker is parked with
// no timer left to wake it. Then it wakes the non-external parker whose
// name sorts first and hands it the deadlock report, which names every
// parked goroutine. Callers hold c.mu with adv held during quiescence.
func (c *VirtualClock) deadlockLocked() {
	var to *Parker
	for p := range c.parked {
		if !p.external && p.waiting && !p.waking && (to == nil || p.name < to.name) {
			to = p
		}
	}
	if to == nil {
		return
	}
	names := make([]string, 0, len(c.parked))
	for p := range c.parked {
		n := p.name
		if n == "" {
			n = "<unnamed>"
		}
		names = append(names, n)
	}
	sort.Strings(names)
	c.deadlockTo = to
	c.deadlock = fmt.Sprintf("vclock: deadlock at t=%v: %d goroutine(s) parked with no pending timers: %v",
		c.Now(), len(names), names)
	c.active.Add(1)
	to.waiting = false
	to.woke = false
	select {
	case to.ch <- struct{}{}:
	default:
	}
}

// Key is the order key of a drawn timer: the clock fires timers in
// (Deadline, Seq) order. Seq packs two numbers: above drawBits, the
// instant the key was drawn at, and below, the draw's rank among that
// instant's draws, from 1. Virtual time never runs backwards, so this
// orders keys exactly as one ever-growing counter would, and every key — a
// stream item's too — says when it was drawn without a field of its own.
type Key struct {
	Deadline time.Duration
	Seq      uint64
}

// drawBits is the width of a sequence number's rank part: an instant holds
// 2^20 − 1 draws before its ranks spill into the instant part, and the
// instant part holds 2^44 ns (4.8 hours) of virtual time. Past either
// bound keys still order exactly, since moveTo never lowers the counter;
// only the draw instants read late.
const drawBits = 20

// drawnAt returns the instant a sequence number was drawn at.
func drawnAt(seq uint64) time.Duration { return time.Duration(seq >> drawBits) }

// moveTo advances virtual time to t and restarts the draw ranks. Callers
// hold c.adv with the clock quiescent, so no draw races it.
func (c *VirtualClock) moveTo(t time.Duration) {
	c.now.Store(int64(t))
	if base := uint64(t) << drawBits; base>>drawBits == uint64(t) && base > c.seq.Load() {
		c.seq.Store(base)
	}
}

// Draw draws the key a timer armed now to fire d from now would take.
func (c *VirtualClock) Draw(d time.Duration) Key {
	return Key{c.Now() + max(d, 0), c.seq.Add(1)}
}

// Fired reports whether a timer keyed k would have fired by now: whether k
// orders before the timer the clock fired last, which for a running
// goroutine is the one whose firing resumed the simulation.
func (c *VirtualClock) Fired(k Key) bool {
	c.mu.Lock()
	f := c.fired
	c.mu.Unlock()
	if k.Deadline != f.deadline {
		return k.Deadline < f.deadline
	}
	return k.Seq < f.seq
}

// InitRankedEvent is InitEvent for an event whose owner arms it, now and
// then, with a key it did not draw (AtDrawn): a dormant polling service's
// step. Ranks are handed out from 1 in call order, and ranked events due
// at one deadline and drawn at one instant fire in rank order.
func (c *VirtualClock) InitRankedEvent(e *Event, fn func()) {
	c.InitEvent(e, fn)
	c.mu.Lock()
	c.ranked = append(c.ranked, e)
	e.rank = uint32(len(c.ranked))
	c.mu.Unlock()
}

// Unrank removes the ranked event e from the clock's ranking once its owner
// will arm it no more, so that the clock, which a sync.Pool may keep
// reachable after its job ends, does not keep the owner alive. Its rank is
// not handed out again.
func (e *Event) Unrank() {
	c := e.c
	c.mu.Lock()
	c.ranked[e.rank-1] = nil
	c.mu.Unlock()
}

// FiredDrawn reports whether the ranked event e, had it been armed at the
// instant drawn to fire at deadline, would have fired by now (Fired). A
// key drawn at another instant than the last fired timer's orders by that
// instant, and against another ranked event drawn at the same instant by
// rank; against any other timer drawn there it is undecided, and reported
// as not fired.
func (e *Event) FiredDrawn(deadline, drawn time.Duration) (fired, undecided bool) {
	c := e.c
	c.mu.Lock()
	f := c.fired
	c.mu.Unlock()
	switch {
	case deadline != f.deadline:
		return deadline < f.deadline, false
	case drawn != drawnAt(f.seq):
		return drawn < drawnAt(f.seq), false
	case f.rank == 0:
		return false, true
	}
	return e.rank < f.rank, false
}

// AtDrawn arms the ranked event e to fire at deadline as if drawn at the
// instant drawn, at or before now. Among the ranked events armed for
// deadline and drawn at that instant — the steps of polling services that
// keep one grid, which fire one after another, each drawing its next step,
// in the order they took when they first shared the grid: rank order, for
// services that start together — e takes its place by rank: right after
// the last of those ranked below it, else right before the first of those
// ranked above it, else before every timer drawn at that instant. The
// placement is undecided, and reported, if one ranked below fires after
// one ranked above — then their order is not rank order, and neither may
// e's be — or if a timer that is not a ranked event is due with e and
// was drawn at that instant.
func (e *Event) AtDrawn(deadline, drawn time.Duration) (undecided bool) {
	c := e.c
	if deadline < c.Now() {
		panic("vclock: AtDrawn with a deadline in the past")
	}
	seq := uint64(drawn) << drawBits
	c.mu.Lock()
	if e.index != unarmed {
		c.mu.Unlock()
		panic("vclock: AtDrawn on an Event that is already armed")
	}
	var below, above uint64 // the latest key ranked below e, the earliest ranked above
	anyBelow, anyAbove := false, false
	for _, r := range c.ranked {
		if r == nil || r.index == unarmed || r.deadline != deadline || drawnAt(r.seq) != drawn {
			continue
		}
		if r.rank < e.rank {
			below, anyBelow = max(below, r.seq), true
		} else if !anyAbove || r.seq < above {
			above, anyAbove = r.seq, true
		}
	}
	switch {
	case anyBelow:
		seq = below
	case anyAbove:
		seq = above
	}
	undecided = anyBelow && anyAbove && below > above || c.unrankedDueLocked(deadline, drawn)
	e.deadline, e.seq = deadline, seq
	c.pushEventLocked(&e.timer, deadline-c.Now())
	c.mu.Unlock()
	return undecided
}

// unrankedDueLocked reports whether a timer other than a ranked event is
// armed to fire at deadline and was drawn at the instant drawn: a key
// whose order against a placed one nobody knows. Callers hold c.mu.
func (c *VirtualClock) unrankedDueLocked(deadline, drawn time.Duration) bool {
	due := func(e timerEnt) bool {
		return e.deadline == deadline && drawnAt(e.seq) == drawn && e.t.rank == 0
	}
	for _, e := range c.timers {
		if due(e) {
			return true
		}
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		for _, e := range l.buf[l.head:] {
			if due(e) {
				return true
			}
		}
	}
	return false
}

// At arms the event with a key Draw returned, due at or after now.
func (e *Event) At(k Key) {
	c := e.c
	if k.Deadline < c.Now() {
		panic("vclock: At with a deadline in the past")
	}
	c.mu.Lock()
	if e.index != unarmed {
		c.mu.Unlock()
		panic("vclock: At on an Event that is already armed")
	}
	e.deadline, e.seq = k.Deadline, k.Seq
	c.pushEventLocked(&e.timer, k.Deadline-c.Now())
	c.mu.Unlock()
}

// Event is a reusable callback timer: the event-driven counterpart of a
// goroutine that loops over Sleep. It is armed at most once at a time; its
// callback may re-arm it. The callback runs on whichever goroutine is
// advancing the clock, with virtual time held at the event's deadline, so it
// must not block — no Sleep, Park, Resource.Use or channel wait: a blocked
// callback hangs the simulation without a deadlock report (tagalint's
// taskctx analyzer flags such calls). It may arm events, Unpark parkers and
// spawn goroutines with Go.
type Event struct {
	timer
	c *VirtualClock
}

// InitEvent binds a caller-owned Event to this clock with callback fn:
// each After arms it once and fn runs when it expires. Owners hold their
// events by value. Initialising an armed event panics.
func (c *VirtualClock) InitEvent(e *Event, fn func()) {
	if e.c != nil && e.index != unarmed {
		panic("vclock: InitEvent on an Event that is armed")
	}
	*e = Event{c: c}
	e.fn = fn
	e.index = unarmed
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
	c := e.c
	now := c.Now()
	seq := c.seq.Add(1)
	c.mu.Lock()
	if e.index != unarmed {
		c.mu.Unlock()
		panic("vclock: After on an Event that is already armed")
	}
	e.deadline, e.seq = now+d, seq
	c.pushEventLocked(&e.timer, d)
	c.mu.Unlock()
}
