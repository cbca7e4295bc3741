// GASPI error-state machine (DESIGN.md §9): queue health, failed-request
// completion and queue repair — the simulator's rendering of the spec's
// timeout-based error handling, under which a failed operation moves its
// queue into an error state, waits return GASPI_TIMEOUT-style results
// instead of hanging, and the application (or TAGASPI's retry policy)
// inspects queue health and purges the queue to recover.

package gaspisim

import "repro/internal/obs"

// QueueHealth is the health state of a communication queue — the
// simulator's condensation of the spec's gaspi_state_vec, which an
// application checks after a timed-out wait to find failed connections.
type QueueHealth uint8

// Queue health states.
const (
	// QueueHealthy accepts posts.
	QueueHealthy QueueHealth = iota
	// QueueError refuses posts until QueueRepair: an operation posted to
	// the queue failed, and the spec voids the queue until it is purged.
	QueueError
)

// QueueState returns the health of one queue (the gaspi_state_vec check).
// An out-of-range queue id panics with GASPI_ERR_INV_QUEUE semantics.
func (p *Proc) QueueState(queueID int) QueueHealth {
	q := p.queueAt(queueID)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.errored {
		return QueueError
	}
	return QueueHealthy
}

// QueueRepair returns an errored queue to service, modelling
// gaspi_queue_purge plus connection re-establishment: it charges a fixed
// repair cost (10x the per-operation post overhead) and clears the error
// state. Completed-request records — including the failed ones — are
// preserved for RequestWait, so no completion accounting is lost. An
// out-of-range queue id panics with GASPI_ERR_INV_QUEUE semantics.
func (p *Proc) QueueRepair(queueID int) {
	q := p.queueAt(queueID)
	p.clk.Sleep(10 * p.prof.RDMAOpOverhead)
	q.mu.Lock()
	q.errored = false
	q.mu.Unlock()
}

// completeLocalErr records nreq failed low-level requests with the given
// tag, moves the queue into the error state and wakes every waiter, so a
// blocked RequestWait or Wait observes the failure instead of hanging on
// requests that will never complete. posted distinguishes operations that
// reached the fabric (outstanding was incremented by post) from posts
// fast-failed on an already-errored queue.
func (q *queue) completeLocalErr(tag any, nreq int, posted bool) {
	q.mu.Lock()
	for i := 0; i < nreq; i++ {
		q.completed = append(q.completed, CompletedRequest{Tag: tag, OK: false})
	}
	q.ncompleted.Add(int32(nreq))
	if posted {
		q.outstanding -= nreq
	}
	q.errored = true
	q.errors++
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, w := range ws {
		w.Unpark()
	}
	q.p.recQueueError(q.idx)
}

// recQueueError records one failed operation on a queue: the
// gaspi_queue_errors counter plus a timeline instant on the queue's track.
func (p *Proc) recQueueError(queueID int) {
	if p.rec == nil {
		return
	}
	p.rec.Count("gaspi_queue_errors", 1)
	p.rec.Instant(int(p.rank), obs.QueueTrack(queueID), obs.CatGaspi,
		"gaspi:queue_error", p.clk.Now(), int64(queueID))
}
