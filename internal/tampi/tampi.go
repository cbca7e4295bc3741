// Package tampi implements the Task-Aware MPI library (§II-C of the paper):
// it lets tasks issue non-blocking two-sided MPI operations and bind the
// requests to the task's completion through the external events API, so the
// task's dependencies are released only when both the body has finished and
// every bound request has completed.
//
// Iwait mirrors TAMPI_Iwait: non-blocking and asynchronous, returning
// immediately after binding the request.
//
// A transparent polling task (tasking.Service) checks the in-flight requests
// with MPI_Testsome — through the same modelled library lock as the
// application's Isend/Irecv calls, which is exactly the contention the
// paper measures in §VI-C. While no request is listed the polling task
// goes dormant, and Iwait, the only way a request is listed, wakes it.
package tampi

import (
	"sync"
	"time"

	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/tasking"
)

// Library is the per-rank TAMPI instance.
type Library struct {
	p   *mpisim.Proc
	svc *tasking.Service

	mu       sync.Mutex
	requests []*mpisim.Request
	counters []*tasking.EventCounter

	// State of the polling pass in progress, owned by the service's steps.
	// The slices are scratch buffers reused by every pass.
	snap    []*mpisim.Request // in-flight set as of the pass start
	booking mpisim.Booking    // the pass's Testsome call
	done    []int
	retire  []*tasking.EventCounter
	checkFn func() // l.check, bound once so that arming allocates nothing
}

// DefaultPollInterval is the polling period used when none is configured
// (the paper tunes 50–150µs per application; §VI).
const DefaultPollInterval = 150 * time.Microsecond

// New initialises TAMPI for one rank and spawns its polling task.
// A non-positive interval dedicates the polling task (poll back-to-back).
func New(p *mpisim.Proc, rt *tasking.Runtime, interval time.Duration) *Library {
	l := &Library{p: p}
	l.checkFn = l.check
	l.svc = rt.NewService("tampi-poll", interval, l.quiet, nil)
	l.svc.Start(l.poll)
	return l
}

// Iwait binds req to the calling task: the task's completion (and the
// release of its dependencies) is delayed until the request finalises.
// It returns immediately — the TAMPI_Iwait semantics. The calling task
// must not assume the operation has finished; only successor tasks may
// consume or reuse the communication buffers.
func (l *Library) Iwait(t *tasking.Task, req *mpisim.Request) {
	c := t.Events()
	c.Increase(1)
	l.mu.Lock()
	l.requests = append(l.requests, req)
	l.counters = append(l.counters, c)
	l.mu.Unlock()
	l.svc.Wake()
}

// poll starts one pass of the transparent polling task: a single Testsome
// over the in-flight request set, booked on the library lock now and
// checked once the call's modelled time has passed.
//
//tagalint:hotpath
func (l *Library) poll() {
	l.mu.Lock()
	l.snap = append(l.snap[:0], l.requests...)
	l.mu.Unlock()
	if len(l.snap) == 0 {
		l.svc.Done(0)
		return
	}
	l.booking = l.p.BookTestsome()
	l.svc.After(l.booking.Wait, l.checkFn)
}

// check finishes the pass: it retires one task event per request the
// Testsome found complete.
//
//tagalint:hotpath
func (l *Library) check() {
	l.done = l.p.FinishTestsome(l.booking, l.snap, l.done[:0])
	retire := l.retire[:0]
	if len(l.done) > 0 {
		l.mu.Lock()
		// Completed requests retain their identity; remove by pointer in
		// case the set shifted since the snapshot.
		for _, i := range l.done {
			target := l.snap[i]
			for j, r := range l.requests {
				if r == target {
					retire = append(retire, l.counters[j])
					last := len(l.requests) - 1
					l.requests[j] = l.requests[last]
					l.counters[j] = l.counters[last]
					l.requests = l.requests[:last]
					l.counters = l.counters[:last]
					break
				}
			}
		}
		l.mu.Unlock()
	}
	clear(l.snap) // the scratch buffers must not keep retired requests alive
	for i, c := range retire {
		retire[i] = nil
		c.Decrease(1)
	}
	l.retire = retire
	l.svc.Done(len(retire))
}

// quiet reports that no request is in flight: the service's dormancy
// predicate (tasking.NewService), which only Iwait breaks. A pass then
// takes no lock and books no Testsome, so it costs no modelled time, and
// a wake never re-enters one mid-way (no resume).
func (l *Library) quiet() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.requests) == 0
}

// Snapshot returns the polling service's pass counters in the common
// observability shape.
func (l *Library) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Component: "tampi",
		Rank:      int(l.p.Rank()),
		Samples: []obs.Sample{
			{Name: "tampi_passes", Value: float64(l.svc.Passes())},
			{Name: "tampi_idle_passes", Value: float64(l.svc.IdlePasses())},
		},
	}
}
