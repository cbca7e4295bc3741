// Package vsync provides the clock-aware primitives that model contention:
// Resource, a serially served resource whose queueing delay emerges in
// virtual time (its arithmetic is Server, which holders that need no lock
// use directly), and Queue, an unbounded FIFO whose consumer parks on the
// virtual clock's Parkers rather than the Go runtime, so modelled time can
// advance past it. Package vclock says why there is one clock and no wall
// clock beside it.
//
// Both serve in arrival order; fairness matters for the contention
// modelling (package mpisim models the MPI library lock as a served
// Resource, and queueing order determines the modelled wait times).
package vsync

import (
	"sync"
	"time"

	"repro/internal/vclock"
)

// Server is the queueing arithmetic of a serially served resource: when the
// next request starts and ends, and the service statistics. It holds no
// lock and no clock, so its owner serializes the calls. Resource wraps one
// with a mutex for requests booked from many goroutines; a fabric link,
// which only clock callbacks touch, holds one directly.
type Server struct {
	freeAt time.Duration
	stats  ResourceStats
}

// Book serves a request of hold modelled time arriving at now, behind every
// earlier one: it starts when the server frees up (or at now, if idle) and
// occupies it until done. A negative hold counts as zero.
//
//tagalint:hotpath
func (s *Server) Book(now, hold time.Duration) (start, done time.Duration) {
	hold = max(hold, 0)
	start = max(s.freeAt, now)
	done = start + hold
	s.freeAt = done
	wait := start - now
	s.stats.Uses++
	s.stats.Busy += hold
	s.stats.Waited += wait
	s.stats.MaxWait = max(s.stats.MaxWait, wait)
	return start, done
}

// Stats returns the server's counters.
func (s *Server) Stats() ResourceStats { return s.stats }

// Resource models a serially-served resource with per-request service
// times: a lock whose critical sections cost modelled time, a NIC injection
// port draining at link bandwidth, a DMA engine, and so on.
//
// Requests are served in arrival order. Use blocks the caller until every
// earlier request has been served and then for the caller's own hold time,
// so the queueing delay under contention emerges naturally in virtual time.
// Mutual exclusion over data structures is NOT provided — Resource models
// time only; guard shared state with an ordinary mutex.
//
// Package mpisim uses a Resource to model the MPI_THREAD_MULTIPLE library
// lock (§VI-C of the paper: the lock shared by MPI_Isend/Irecv/Test* is the
// source of TAMPI's small-block collapse). Package fabric uses Resources
// for NIC serialization.
type Resource struct {
	clk *vclock.VirtualClock
	mu  sync.Mutex
	srv Server
}

// NewResource returns an idle resource bound to clk.
func NewResource(clk *vclock.VirtualClock) *Resource {
	return &Resource{clk: clk}
}

// Use occupies the resource for hold of modelled time, after waiting for
// all earlier requests. It returns the time spent queueing (excluding the
// caller's own service time). A non-positive hold with an idle resource
// returns immediately.
func (r *Resource) Use(hold time.Duration) (waited time.Duration) {
	now := r.clk.Now()
	start, done := r.Reserve(hold)
	r.clk.Sleep(done - now)
	return start - now
}

// Reserve books the resource like Use but returns immediately with the
// modelled completion time instead of sleeping. Callers that pipeline work
// (e.g. a NIC injecting a message whose local completion the sender does
// not wait for) use Reserve and sleep elsewhere.
func (r *Resource) Reserve(hold time.Duration) (start, done time.Duration) {
	now := r.clk.Now()
	r.mu.Lock()
	start, done = r.srv.Book(now, hold)
	r.mu.Unlock()
	return start, done
}

// ResourceStats is a snapshot of a Resource's (or a Server's) counters.
type ResourceStats struct {
	Uses    int64         // completed Use/Reserve (Server: Book) calls
	Busy    time.Duration // total modelled service time
	Waited  time.Duration // total modelled queueing time
	MaxWait time.Duration // longest single queueing delay
}

// Stats returns a snapshot of the resource's counters.
func (r *Resource) Stats() ResourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv.Stats()
}

// Queue is an unbounded FIFO with a clock-aware blocking Pop, for
// single-consumer use. Push never blocks and may be called from any
// goroutine.
type Queue[T any] struct {
	clk    *vclock.VirtualClock
	mu     sync.Mutex
	items  []T
	closed bool
	waiter *vclock.Parker // consumer parked in Pop, if any

	// consumerP is the single consumer's reusable parking slot. A queue
	// wait is woken by exactly one Unpark per registration (Push/Close
	// claim the waiter field under the lock before unparking), so the
	// same parker can serve every wait of the consumer's lifetime
	// instead of allocating one per idle period.
	consumerP *vclock.Parker
}

// NewQueue returns an open, empty queue bound to clk.
func NewQueue[T any](clk *vclock.VirtualClock) *Queue[T] {
	return &Queue[T]{clk: clk}
}

// Push appends v and wakes the consumer if it is parked.
// Push on a closed queue panics.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("vsync: Push on closed Queue")
	}
	q.items = append(q.items, v)
	p := q.waiter
	q.waiter = nil
	q.mu.Unlock()
	if p != nil {
		p.Unpark()
	}
}

// Pop removes and returns the oldest element, parking until one is
// available. ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	for {
		if len(q.items) > 0 {
			v = q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return v, true
		}
		if q.closed {
			q.mu.Unlock()
			return v, false
		}
		q.parkConsumerLocked()
		q.mu.Lock()
	}
}

// parkConsumerLocked registers the consumer's reusable parker, creating it
// on first use, and parks; it panics on a second concurrent consumer. It is
// entered with q.mu held and returns with it released.
func (q *Queue[T]) parkConsumerLocked() {
	if q.waiter != nil {
		q.mu.Unlock()
		panic("vsync: concurrent Pop on single-consumer Queue")
	}
	p := q.consumerP
	if p == nil {
		p = q.clk.Parker()
		// A queue consumer is a service loop: it legitimately idles when
		// no work exists, so it must not trip virtual-time deadlock
		// detection.
		p.SetExternal(true)
		p.SetName("queue-consumer")
		q.consumerP = p
	}
	q.waiter = p
	q.mu.Unlock()
	p.Park()
}

// Close marks the queue closed; a parked consumer is woken and Pop returns
// ok=false once drained. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	p := q.waiter
	q.waiter = nil
	q.mu.Unlock()
	if p != nil {
		p.Unpark()
	}
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
