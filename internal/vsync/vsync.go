// Package vsync provides synchronization primitives that block through the
// virtual clock's Parkers rather than the Go runtime: a goroutine waiting on
// one counts as parked, so modelled time can advance past it. Package vclock
// says why there is one clock and no wall clock beside it.
//
// All primitives wake waiters in FIFO order; fairness matters for the
// contention modelling (package mpisim models the MPI library lock as a
// served Resource, and queueing order determines the modelled wait times).
package vsync

import (
	"sync"
	"time"

	"repro/internal/vclock"
)

// Mutex is a FIFO, clock-aware mutual exclusion lock. The zero value is not
// usable; construct with NewMutex.
type Mutex struct {
	clk     *vclock.VirtualClock
	mu      sync.Mutex
	locked  bool
	waiters []*vclock.Parker
}

// NewMutex returns an unlocked mutex bound to clk.
func NewMutex(clk *vclock.VirtualClock) *Mutex {
	return &Mutex{clk: clk}
}

// Lock acquires m, parking the caller on the clock if m is held.
func (m *Mutex) Lock() {
	m.mu.Lock()
	if !m.locked {
		m.locked = true
		m.mu.Unlock()
		return
	}
	p := m.clk.Parker()
	m.waiters = append(m.waiters, p)
	m.mu.Unlock()
	p.Park() // ownership is handed off by Unlock
}

// TryLock acquires m without blocking and reports whether it succeeded.
func (m *Mutex) TryLock() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locked {
		return false
	}
	m.locked = true
	return true
}

// Unlock releases m, handing ownership to the earliest waiter if any.
func (m *Mutex) Unlock() {
	m.mu.Lock()
	if !m.locked {
		m.mu.Unlock()
		panic("vsync: Unlock of unlocked Mutex")
	}
	if len(m.waiters) == 0 {
		m.locked = false
		m.mu.Unlock()
		return
	}
	p := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.mu.Unlock()
	p.Unpark()
}

// Cond is a clock-aware condition variable. Like sync.Cond, the Locker L
// must be held when calling Wait, Signal and Broadcast; the waiter list is
// protected by L.
type Cond struct {
	L       sync.Locker
	clk     *vclock.VirtualClock
	waiters []*vclock.Parker
}

// NewCond returns a condition variable bound to clk that uses l as its
// Locker.
func NewCond(clk *vclock.VirtualClock, l sync.Locker) *Cond {
	return &Cond{L: l, clk: clk}
}

// Wait atomically releases c.L, parks the caller, and re-acquires c.L
// before returning. As with sync.Cond, callers must re-check the condition.
func (c *Cond) Wait() {
	p := c.clk.Parker()
	c.waiters = append(c.waiters, p)
	c.L.Unlock()
	p.Park()
	c.L.Lock()
}

// WaitTimeout is Wait with a deadline. It reports whether the caller was
// woken by Signal/Broadcast (true) rather than by the timeout (false).
// Note that a timed-out waiter may still have consumed a Signal that raced
// with the timeout; callers must re-check the condition either way.
func (c *Cond) WaitTimeout(d time.Duration) bool {
	p := c.clk.Parker()
	c.waiters = append(c.waiters, p)
	c.L.Unlock()
	woke := p.ParkTimeout(d)
	c.L.Lock()
	if !woke {
		// Remove ourselves so a future Signal is not wasted on us.
		for i, w := range c.waiters {
			if w == p {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
	}
	return woke
}

// Signal wakes the earliest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	p.Unpark()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		p.Unpark()
	}
}

// Semaphore is a counted, FIFO, clock-aware semaphore. It backs the
// per-rank worker pool of the tasking runtime (one permit per core).
type Semaphore struct {
	clk     *vclock.VirtualClock
	mu      sync.Mutex
	avail   int
	waiters []*vclock.Parker
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(clk *vclock.VirtualClock, n int) *Semaphore {
	return &Semaphore{clk: clk, avail: n}
}

// Acquire takes one permit, parking until one is available.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	if s.avail > 0 {
		s.avail--
		s.mu.Unlock()
		return
	}
	p := s.clk.Parker()
	s.waiters = append(s.waiters, p)
	s.mu.Unlock()
	p.Park() // permit handed off by Release
}

// TryAcquire takes a permit without blocking and reports success.
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avail == 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit, handing it to the earliest waiter if any.
func (s *Semaphore) Release() {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.avail++
		s.mu.Unlock()
		return
	}
	p := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.mu.Unlock()
	p.Unpark()
}

// WaitGroup is a clock-aware analogue of sync.WaitGroup.
type WaitGroup struct {
	clk     *vclock.VirtualClock
	mu      sync.Mutex
	count   int
	waiters []*vclock.Parker
}

// NewWaitGroup returns an empty WaitGroup bound to clk.
func NewWaitGroup(clk *vclock.VirtualClock) *WaitGroup {
	return &WaitGroup{clk: clk}
}

// Add adds delta to the counter. If the counter reaches zero, all waiters
// are released. It panics if the counter goes negative.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.count += delta
	if w.count < 0 {
		w.mu.Unlock()
		panic("vsync: negative WaitGroup counter")
	}
	var wake []*vclock.Parker
	if w.count == 0 {
		wake = w.waiters
		w.waiters = nil
	}
	w.mu.Unlock()
	for _, p := range wake {
		p.Unpark()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.count == 0 {
		w.mu.Unlock()
		return
	}
	p := w.clk.Parker()
	w.waiters = append(w.waiters, p)
	w.mu.Unlock()
	p.Park()
}
