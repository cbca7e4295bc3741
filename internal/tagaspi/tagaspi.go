// Package tagaspi implements the Task-Aware GASPI library — the paper's
// primary contribution (§IV). It lets tasks issue fine-grained one-sided
// operations and asynchronously wait for remote notifications, binding the
// local completion of RMA operations and the arrival of notifications to
// the calling task's event counters. The task keeps running and may finish
// its body at any time, but it does not complete — and does not release its
// data dependencies — until every bound operation finalises (Figure 1).
//
// The implementation mirrors §IV-D:
//
//   - RMA operations are posted through the extended GASPI interface
//     (gaspi_operation_submit) with the task's event counter as the
//     operation tag; a write+notify accounts for two low-level requests.
//     A step task (tasking.NonBlocking) cannot sleep through the post: it
//     books the post and sends in its next step (Task.Then), so
//     WriteNotify, Notify and Read must be its step's last call.
//   - A transparent polling task drains each queue's completed requests
//     with gaspi_request_wait (non-blocking) and decrements the event
//     counters codified in the returned tags. The task is event-driven
//     (tasking.Service): a pass is a chain of steps, one per drained queue.
//   - Pending notification waits are staged on a multi-producer queue
//     (pendingQueue) and drained by the polling task into a private list;
//     each pass checks arrival with a non-blocking notify-reset, stores the
//     notified value through the user's pointer, and fulfils the task event.
//   - While a pass can find nothing — no staged wait or retry, no request
//     in flight, no notification set since the last scan — the polling
//     task goes dormant (tasking.NewService). GASPI wakes it on every
//     notification set on the rank and every post
//     (gaspisim.Proc.OnActivity), as does a staged wait; the skipped
//     passes are booked as if they had run.
//
// The standard gaspi_wait is obsoleted: TAGASPI checks local completion of
// task-aware operations internally, so applications only decide which
// queue to post each operation on.
package tagaspi

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gaspisim"
	"repro/internal/obs"
	"repro/internal/tasking"
)

// Re-exported identifier types for caller convenience.
type (
	// SegmentID identifies a GASPI segment.
	SegmentID = gaspisim.SegmentID
	// NotificationID identifies a notification slot within a segment.
	NotificationID = gaspisim.NotificationID
	// Rank identifies a process.
	Rank = gaspisim.Rank
)

// Library is the per-rank TAGASPI instance.
type Library struct {
	p   *gaspisim.Proc
	svc *tasking.Service
	rec *obs.Collector // nil unless instrumented

	pending pendingQueue[*notifWait] // staged notification waits (§IV-D)
	waiting []*notifWait             // the polling task's private list
	scanned uint64                   // the rank's notification count as of the last scan of waiting

	// Retry policy (DESIGN.md §9): operations that fail — the queue enters
	// the GASPI error state and their completions come back failed — are
	// repaired and resubmitted with bounded exponential backoff. Only the
	// polling task touches retryQ and the pendingOp records.
	retryQ []*pendingOp

	outstanding atomic.Int64 // pending notification waits, for observers
	retries     atomic.Int64 // resubmissions performed
	gaveup      atomic.Int64 // operations abandoned after DefaultMaxAttempts

	// State of the polling pass in progress, owned by the service's steps.
	q       int                         // queue being drained
	retired int                         // task events retired so far
	comp    []gaspisim.CompletedRequest // scratch buffer reused by every drain
	// Step method values, bound once so that arming allocates nothing.
	drainFn, resubmitFn func()
}

// notifWait is one pending tagaspi_notify_iwait registration.
type notifWait struct {
	seg      SegmentID
	released bool // set by putNotifWait, cleared by newNotifWait (DESIGN.md §6)
	id       NotificationID
	out      *int64
	counter  *tasking.EventCounter
}

// pendingOp is the operation tag TAGASPI posts with every submission: the
// bound task's event counter plus everything needed to resubmit the
// operation if it fails. All mutable fields are owned by the polling task;
// the queue's completion list is the only handoff point.
//
// Records are pooled: a pendingOp is recycled once no completion can
// reference it again — when all nreq requests completed successfully, or
// when the operation is abandoned after its final all-failed attempt. An
// attempt that fails only partially (the fault plane never produces this)
// is leaked to the GC rather than double-released.
type pendingOp struct {
	op       gaspisim.Operation    // as submitted, Tag pointing back at this record
	counter  *tasking.EventCounter // the task's event counter
	nreq     int                   // low-level requests per submission (2 for write+notify)
	oks      int                   // successful completions seen in total
	fails    int                   // failed completions seen this attempt
	attempts int32                 // failed attempts so far; 32 bits leave room for the mark
	released bool                  // set by putPendingOp, cleared by newPendingOp (DESIGN.md §6)
	failAt   time.Duration         // modelled time the current attempt failed
	dueAt    time.Duration         // modelled time of the next resubmission
}

var pendingOpPool = sync.Pool{New: func() any { return new(pendingOp) }}

// newPendingOp returns a zeroed record from the pool.
//
//tagalint:hotpath
func newPendingOp() *pendingOp {
	po := pendingOpPool.Get().(*pendingOp)
	po.released = false
	return po
}

// putPendingOp zeroes po, marks it released and returns it to the pool. A
// second release panics.
//
//tagalint:hotpath
func putPendingOp(po *pendingOp) {
	if po.released {
		panic("tagaspi: putPendingOp of a released pendingOp")
	}
	*po = pendingOp{released: true}
	pendingOpPool.Put(po)
}

var notifWaitPool = sync.Pool{New: func() any { return new(notifWait) }}

// newNotifWait returns a zeroed wait from the pool.
//
//tagalint:hotpath
func newNotifWait() *notifWait {
	w := notifWaitPool.Get().(*notifWait)
	w.released = false
	return w
}

// putNotifWait zeroes w, marks it released and returns it to the pool. A
// second release panics.
//
//tagalint:hotpath
func putNotifWait(w *notifWait) {
	if w.released {
		panic("tagaspi: putNotifWait of a released notifWait")
	}
	*w = notifWait{released: true}
	notifWaitPool.Put(w)
}

// DefaultPollInterval is the polling period used when none is configured.
const DefaultPollInterval = 150 * time.Microsecond

// DefaultMaxAttempts is how many times an operation is submitted before
// TAGASPI gives up and fails the task's events (graceful degradation).
const DefaultMaxAttempts = 16

// DefaultRetryBackoff is the base resubmission delay; attempt n waits
// base << (n-1), capped at 10 doublings.
const DefaultRetryBackoff = 20 * time.Microsecond

// maxRequestsPerPass bounds one gaspi_request_wait drain (MAX_REQS in the
// paper's Figure 7).
const maxRequestsPerPass = 64

// maxBackoffShift caps the exponential backoff at base << 10.
const maxBackoffShift = 10

// New initialises TAGASPI for one rank (tagaspi_proc_init) and spawns its
// polling task. A non-positive interval dedicates the polling task.
func New(p *gaspisim.Proc, rt *tasking.Runtime, interval time.Duration) *Library {
	l := &Library{p: p}
	l.drainFn, l.resubmitFn = l.drain, l.resubmit
	l.svc = rt.NewService("tagaspi-poll", interval, l.quiet, l.resume)
	p.OnActivity(l.svc.Wake)
	l.svc.Start(l.poll)
	return l
}

// SetRecorder installs an observability recorder; nil disables recording.
// Call before issuing operations.
func (l *Library) SetRecorder(rec *obs.Collector) { l.rec = rec }

// Proc returns the underlying GASPI process.
func (l *Library) Proc() *gaspisim.Proc { return l.p }

// WriteNotify issues a task-aware write+notify (tagaspi_write_notify):
// size bytes from the local segment are written into the remote segment,
// followed by a notification with the given id and value. The function
// returns immediately, binding the calling task's completion to the local
// finalisation of the operation; the source range must be declared as an
// (at least) input dependency of the task and may only be reused by
// successor tasks.
func (l *Library) WriteNotify(t *tasking.Task, localSeg SegmentID, localOff int,
	remote Rank, remoteSeg SegmentID, remoteOff, size int,
	id NotificationID, value int64, queue int) error {
	// write + notify low-level requests (Figure 7)
	return l.submit(t, gaspisim.Operation{
		Type:     gaspisim.OpWriteNotify,
		LocalSeg: localSeg, LocalOff: localOff,
		Remote: remote, RemoteSeg: remoteSeg, RemoteOff: remoteOff, Size: size,
		NotifyID: id, NotifyVal: value, Queue: queue,
	}, 2)
}

// Read issues a task-aware one-sided read (tagaspi_read, §IV): the local
// range must be declared as an output dependency; successor tasks consume
// the data once this task completes. No figure workload reads; it stays as
// the paper's §IV read, exercised by TestTaskAwareRead.
func (l *Library) Read(t *tasking.Task, localSeg SegmentID, localOff int,
	remote Rank, remoteSeg SegmentID, remoteOff, size, queue int) error {
	return l.submit(t, gaspisim.Operation{
		Type:     gaspisim.OpRead,
		LocalSeg: localSeg, LocalOff: localOff,
		Remote: remote, RemoteSeg: remoteSeg, RemoteOff: remoteOff, Size: size,
		Queue: queue,
	}, 1)
}

// Notify issues a task-aware pure notification (tagaspi_notify), e.g. the
// ack a consumer sends right after unpacking a chunk (§IV-B).
func (l *Library) Notify(t *tasking.Task, remote Rank, remoteSeg SegmentID,
	id NotificationID, value int64, queue int) error {
	return l.submit(t, gaspisim.Operation{
		Type:   gaspisim.OpNotify,
		Remote: remote, RemoteSeg: remoteSeg,
		NotifyID: id, NotifyVal: value, Queue: queue,
	}, 1)
}

// submit binds op to the calling task's event counter and posts it with a
// pendingOp tag so the polling task can retire it on success or retry it on
// failure. nreq is the number of low-level requests the submission spawns.
// The post is gaspisim's Submit in two halves: a goroutine task sleeps
// through the post resource's wait, and a step task (tasking.NonBlocking)
// charges it with Then and sends in its next step, so a post from a step
// task must be the step's last call.
//
//tagalint:hotpath
func (l *Library) submit(t *tasking.Task, op gaspisim.Operation, nreq int) error {
	c := t.Events()
	c.Increase(nreq)
	po := newPendingOp()
	po.op, po.counter, po.nreq = op, c, nreq
	po.op.Tag = po
	send, d, err := l.p.Book(po.op)
	if err != nil {
		// An error return means nothing was posted (fast-fails on an errored
		// queue surface as failed completions instead), so no completion can
		// still reference po.
		c.Decrease(nreq)
		putPendingOp(po)
		return err
	}
	if t.NonBlocking() {
		t.Then(d, send)
		return nil
	}
	l.p.Clock().Sleep(d)
	send()
	return nil
}

// NotifyIwait asynchronously waits for the arrival of one notification
// (tagaspi_notify_iwait). If the notification already arrived it consumes
// it immediately and registers no event; otherwise the calling task's
// completion — or, from an onready callback, its execution (§V-A) — is
// delayed until the notification arrives. The notified value is stored
// through out (if non-nil) upon arrival.
func (l *Library) NotifyIwait(t *tasking.Task, seg SegmentID, id NotificationID, out *int64) {
	if v, ok := l.p.NotifyReset(seg, id); ok {
		if out != nil {
			*out = v
		}
		return
	}
	l.stage(t, seg, id, out)
}

// stage registers a wait for the polling task. The notification may have
// arrived since NotifyIwait looked; the pass that drains the wait checks.
func (l *Library) stage(t *tasking.Task, seg SegmentID, id NotificationID, out *int64) {
	c := t.Events()
	c.Increase(1)
	l.outstanding.Add(1)
	w := newNotifWait()
	w.seg, w.id, w.out, w.counter = seg, id, out, c
	l.svc.Wake()
	l.pending.push(w)
}

// poll starts one pass of the transparent polling task (Figure 7):
// resubmit failed operations whose backoff expired, drain every queue's
// completed low-level requests, then check the pending notification list.
//
//tagalint:hotpath
func (l *Library) poll() {
	l.q, l.retired = 0, 0
	if len(l.retryQ) > 0 {
		// Repairing a queue and reposting block on modelled time, which a
		// service step must not: this pass continues on its own goroutine.
		l.p.Clock().Go(l.resubmitFn)
		return
	}
	l.nextQueue()
}

// resubmit is the blocking step of a fault-path pass.
func (l *Library) resubmit() {
	l.retired = l.resubmitDue()
	l.nextQueue()
}

// nextQueue charges the CPU cost of draining queue l.q's completion list
// (the gaspi_request_wait call) and drains it once that time has passed;
// after the last queue it finishes the pass.
//
//tagalint:hotpath
func (l *Library) nextQueue() {
	if l.q < l.p.Queues() {
		l.svc.After(l.p.RequestTestCost(), l.drainFn)
		return
	}
	l.checkNotifications()
	l.svc.Done(l.retired)
}

// drain retires the completed low-level requests of queue l.q, at most
// maxRequestsPerPass per gaspi_request_wait call; a full batch means the
// queue may hold more and is drained again.
//
//tagalint:hotpath
func (l *Library) drain() {
	l.comp = l.p.RequestTest(l.q, maxRequestsPerPass, l.comp[:0])
	for _, r := range l.comp {
		po := r.Tag.(*pendingOp)
		if po.released {
			panic("tagaspi: drain of a released pendingOp")
		}
		if r.OK {
			po.counter.Decrease(1)
			l.retired++
			po.oks++
			if po.oks == po.nreq { // fully retired; no completion left
				putPendingOp(po)
			}
			continue
		}
		po.fails++
		if po.fails == po.nreq { // all requests of this attempt failed
			l.retired += l.opFailed(po)
		}
	}
	if len(l.comp) < maxRequestsPerPass {
		l.q++
	}
	clear(l.comp) // the scratch buffer must not keep recycled records alive
	l.nextQueue()
}

// checkNotifications drains freshly staged waits into the private list,
// then scans it for notifications that arrived. The scan is skipped when it
// cannot find anything: every listed wait was found unset by the last scan,
// and no notification has been set on this rank since the count that scan
// read (before it looked, so an arrival racing the scan is seen next pass).
//
//tagalint:hotpath
func (l *Library) checkNotifications() {
	sets := l.p.NotificationsSet()
	listed := len(l.waiting)
	l.waiting = l.pending.drain(l.waiting)
	if len(l.waiting) == listed && sets == l.scanned {
		return
	}
	l.scanned = sets
	keep := l.waiting[:0]
	for _, w := range l.waiting {
		if w.released {
			panic("tagaspi: checkNotifications of a released notifWait")
		}
		if v, ok := l.p.NotifyReset(w.seg, w.id); ok {
			if w.out != nil {
				*w.out = v
			}
			w.counter.Decrease(1)
			l.outstanding.Add(-1)
			l.retired++
			putNotifWait(w)
		} else {
			keep = append(keep, w)
		}
	}
	for i := len(keep); i < len(l.waiting); i++ {
		l.waiting[i] = nil
	}
	l.waiting = keep
}

// quiet reports that a pass can find nothing and change nothing: no
// notification wait is staged, no failed operation awaits resubmission, no
// queue has a request in flight or a completion not yet drained, and no
// notification has been set on the rank since the last scan, so the listed
// waits need no look. It is the service's dormancy predicate
// (tasking.NewService); a pass then drains every queue once, finds each
// empty and skips the scan. What can break it — a notification set, a
// post, a staged wait — wakes the service first.
func (l *Library) quiet() bool {
	return l.pending.n.Load() == 0 && len(l.retryQ) == 0 &&
		l.p.NotificationsSet() == l.scanned && l.p.QueuesIdle()
}

// resume re-enters an idle pass after its first done queue drains: the
// pass state those drains leave, and the next drain (tasking.NewService).
func (l *Library) resume(done int) func() {
	l.q, l.retired = done, 0
	return l.drainFn
}

// opFailed handles one fully failed attempt: either schedule a backed-off
// resubmission or, past DefaultMaxAttempts, abandon the operation and
// release the task's events so the application degrades instead of
// deadlocking. Returns the number of task events retired (nonzero only on
// abandonment).
func (l *Library) opFailed(po *pendingOp) int {
	po.fails = 0
	po.attempts++
	if po.attempts >= DefaultMaxAttempts {
		// Count before releasing the events: a TaskWait the release wakes
		// must already see the give-up in the snapshot.
		l.gaveup.Add(1)
		if l.rec != nil {
			l.rec.Count("tagaspi_gaveup", 1)
		}
		nreq := po.nreq
		po.counter.Decrease(nreq)
		putPendingOp(po) // final attempt fully failed; no completion left
		return nreq
	}
	shift := po.attempts - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	po.failAt = l.p.Clock().Now()
	po.dueAt = po.failAt + DefaultRetryBackoff<<shift
	l.retryQ = append(l.retryQ, po)
	return 0
}

// resubmitDue re-posts every queued retry whose backoff expired, repairing
// the target queue first if it is still in the error state.
func (l *Library) resubmitDue() int {
	if len(l.retryQ) == 0 {
		return 0
	}
	now := l.p.Clock().Now()
	keep := l.retryQ[:0]
	resubmitted := 0
	for _, po := range l.retryQ {
		if po.dueAt > now {
			keep = append(keep, po)
			continue
		}
		if l.p.QueueState(po.op.Queue) == gaspisim.QueueError {
			l.p.QueueRepair(po.op.Queue)
		}
		l.retries.Add(1)
		if l.rec != nil {
			l.rec.Count("tagaspi_retries", 1)
			// Retry/backoff blame span: the interval the operation spent
			// failed and backed off before this resubmission (DESIGN.md §10).
			l.rec.Span(int(l.p.Rank()), obs.QueueTrack(po.op.Queue), obs.CatGaspi,
				"tagaspi:retry", po.failAt, now, int64(po.attempts))
		}
		if err := l.p.Submit(po.op); err != nil {
			// Submission errors are programming errors caught on first
			// post; a resubmission cannot produce a new one.
			panic(err)
		}
		resubmitted++
	}
	for i := len(keep); i < len(l.retryQ); i++ {
		l.retryQ[i] = nil
	}
	l.retryQ = keep
	return resubmitted
}

// Snapshot returns the retry-policy and polling counters in the common
// observability shape.
func (l *Library) Snapshot() obs.Snapshot {
	return obs.Snapshot{
		Component: "tagaspi",
		Rank:      int(l.p.Rank()),
		Samples: []obs.Sample{
			{Name: "tagaspi_retries", Value: float64(l.retries.Load())},
			{Name: "tagaspi_gaveup", Value: float64(l.gaveup.Load())},
			{Name: "tagaspi_pending_notifications", Value: float64(l.outstanding.Load())},
			{Name: "tagaspi_passes", Value: float64(l.svc.Passes())},
			{Name: "tagaspi_idle_passes", Value: float64(l.svc.IdlePasses())},
		},
	}
}

// pendingQueue is the staging queue of §IV-D: many communication tasks push
// descriptors concurrently; the single polling task drains them into a
// private list it then owns without further synchronization, so producer
// contention never slows the poller (a lock-free MPSC queue plus an
// intrusive list in the C++ implementation; a mutex-staged slice pair
// here, with the same drain-to-private-list behaviour).
type pendingQueue[T any] struct {
	n      atomic.Int32 // len(staged), readable without mu
	mu     sync.Mutex
	staged []T
	spare  []T // the array drain last emptied; only drain touches it
}

// push stages one descriptor. Safe for concurrent producers.
//
//tagalint:hotpath
func (q *pendingQueue[T]) push(v T) {
	q.mu.Lock()
	//lint:ignore hotalloc staged swaps between two backing arrays with drain; growth stops once the high-water mark is reached
	q.staged = append(q.staged, v)
	q.n.Add(1)
	q.mu.Unlock()
}

// drain moves all staged descriptors into dst (appending) and returns the
// result. The returned slice is owned by the caller: the poller appends
// drained descriptors to its private working list. Only the poller drains,
// so the two backing arrays swap: producers stage into the spare while
// drain copies out of the other, which then becomes the spare.
//
//tagalint:hotpath
func (q *pendingQueue[T]) drain(dst []T) []T {
	if q.n.Load() == 0 {
		return dst // the idle pass: nothing was staged since the last drain
	}
	q.mu.Lock()
	staged := q.staged
	q.staged = q.spare
	q.n.Store(0)
	q.mu.Unlock()
	dst = append(dst, staged...)
	clear(staged) // drop references for the collector
	q.spare = staged[:0]
	return dst
}
