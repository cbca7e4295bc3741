// The task-aware TAGASPI backend: the same ring schedule as the
// blocking backends, but every step is a task. A step task's *execution*
// is gated on its predecessor chunk's arrival through a
// tagaspi_notify_iwait external event registered in the task's onready
// hook — the polling service fulfils it when the notification lands, so
// no worker ever parks inside a collective wait. A step's write binds
// its *completion* to the task's events (tagaspi_write_notify), so the
// chain's dependency order doubles as local-completion order and the
// single send slot stays safe without gaspi_wait. This lifts the paper's
// §IV point-to-point integration idiom to whole collectives.

package collectives

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/tasking"
)

// taStep is the per-step capture record of a task-aware collective
// chain: the comm, schedule coordinates and operand views one submitted
// task needs. Records recycle through stepPool — after a task body hands
// its record to releaseStep, nothing may touch it again.
type taStep struct {
	c        *Comm
	epoch    int
	g        int // ring step index
	op       Op
	released bool // set by releaseStep, cleared by newStep (DESIGN.md §6)
	prev     int  // ring-credit epoch step 0 awaits (-1: none)
	in       []float64
	work     []float64
	// evVals captures the values of the step's notify_iwait
	// registrations, checked by the body against the expected epoch —
	// the task-aware half of consumeNotification's corruption tripwire.
	evVals []int64
}

// stepPool recycles taStep records across collectives; step submission is
// the task-aware send path's only allocation site, and with the pool warm
// it allocates nothing.
var stepPool = sync.Pool{New: func() any { return new(taStep) }}

// newStep draws a step record bound to the comm and epoch.
//
//tagalint:hotpath
func newStep(c *Comm, epoch, g int) *taStep {
	s := stepPool.Get().(*taStep)
	s.c, s.epoch, s.g, s.prev, s.released = c, epoch, g, -1, false
	return s
}

// releaseStep zeroes a spent record, marks it released and returns it to
// the pool, keeping the value-capture scratch so its capacity survives
// recycling. A second release panics.
//
//tagalint:hotpath
func releaseStep(s *taStep) {
	if s.released {
		panic("collectives: releaseStep of a released taStep")
	}
	vals := s.evVals[:0]
	*s = taStep{released: true}
	s.evVals = vals
	stepPool.Put(s)
}

// own panics when s was already released: a step body may run only on a
// record it still holds.
func (s *taStep) own() {
	if s.released {
		panic("collectives: step body on a released taStep")
	}
}

// evSlots returns the step's value-capture array resized to n slots, each
// reset to -1 (no epoch) so a never-fulfilled registration cannot pass
// the epoch check by accident.
func (s *taStep) evSlots(n int) []int64 {
	if cap(s.evVals) < n {
		s.evVals = make([]int64, n)
	}
	s.evVals = s.evVals[:n]
	for i := range s.evVals {
		s.evVals[i] = -1
	}
	return s.evVals
}

// checkEvVal panics unless iwait slot i carries the expected epoch,
// mirroring consumeNotification: a flow-control bug on the task-aware
// path must fail loudly, not yield wrong floats.
func (s *taStep) checkEvVal(i, epoch int) {
	if v := s.evVals[i]; v != int64(epoch) {
		panic(fmt.Sprintf("collectives: task-aware iwait slot %d carries epoch %d, want %d — staging protocol violated", i, v, epoch))
	}
}

// taRing submits the task chain of one task-aware allreduce: c.steps+1
// tasks serialised InOut on the comm's key, task g gated on arrival g-1
// (task 0 on the previous same-parity ring epoch's consumption ack), the
// final task acknowledging consumption. The call returns after
// submission; results materialise when the chain completes.
func (c *Comm) taRing(epoch int, in, work []float64, op Op) {
	parity := epoch & 1
	prev := c.lastRing[parity]
	c.lastRing[parity] = epoch
	for g := 0; g <= c.steps; g++ {
		s := newStep(c, epoch, g)
		s.op = op
		s.in, s.work = in, work
		if g == 0 {
			s.prev = prev
		}
		c.rt.Submit(func(t *tasking.Task) {
			s.ringRun(t)
			releaseStep(s)
		},
			tasking.WithDeps(tasking.InOutVal(c.key)),
			tasking.WithOnReady(s.ringOnReady),
			tasking.WithLabel("coll:step"))
	}
}

// ringOnReady registers the external events gating a ring step task:
// step 0 the ring-credit ack of the previous same-parity epoch, every
// later step the arrival notification of its predecessor chunk.
func (s *taStep) ringOnReady(t *tasking.Task) {
	vals := s.evSlots(1)
	if s.g == 0 {
		if s.prev >= 0 {
			s.c.tg.NotifyIwait(t, Seg, s.c.ringAckNid(s.prev), &vals[0])
		}
		return
	}
	s.c.tg.NotifyIwait(t, Seg, s.c.ringNid(s.epoch, s.g-1), &vals[0])
}

// ringRun is a ring step task's body: consume the predecessor arrival
// (already fulfilled — execution was gated on it), combine, and push this
// step's chunk; the final task closes the phase spans and acknowledges
// consumption to the left neighbour.
func (s *taStep) ringRun(t *tasking.Task) {
	s.own()
	c := s.c
	n, me := c.n, c.rank
	chunk := len(s.work) / n
	parity := s.epoch & 1
	chunkBytes := chunk * memory.F64Bytes
	segB := c.seg.Bytes()

	if s.g == 0 {
		if s.prev >= 0 {
			s.checkEvVal(0, s.prev) // the same-parity ring credit
		}
		c.taOpStart = c.clk.Now()
		c.taPhaseStart = c.taOpStart
		copy(s.work, s.in)
	} else {
		j := s.g - 1
		s.checkEvVal(0, s.epoch) // the predecessor chunk's arrival
		c.flowFinish(c.clk.Now(), stepFlowID(s.epoch, j, me))
		rc := ringRecvChunk(me, n, j)
		slot := memory.Float64s(segB[c.ringSlotOff(parity, j):][:chunkBytes])
		dst := s.work[rc*chunk : (rc+1)*chunk]
		if j < n-1 {
			combine(dst, slot, s.op)
		} else {
			copy(dst, slot)
		}
		if c.elemCost > 0 {
			t.Compute(c.elemCost * time.Duration(chunk))
		}
		if j == n-2 {
			c.span("coll:reduce_scatter", c.taPhaseStart, c.clk.Now(), int64(s.epoch))
			c.taPhaseStart = c.clk.Now()
		}
	}
	if s.g < c.steps {
		sc := ringSendChunk(me, n, s.g)
		right := gaspisim.Rank(mod(me+1, n))
		copy(memory.Float64s(segB[c.sendOff():][:chunkBytes]), s.work[sc*chunk:(sc+1)*chunk])
		c.flowStart(c.clk.Now(), stepFlowID(s.epoch, s.g, int(right)))
		must(c.tg.WriteNotify(t, Seg, c.sendOff(), right, Seg,
			c.ringSlotOff(parity, s.g), chunkBytes,
			c.ringNid(s.epoch, s.g), int64(s.epoch), commQueue))
		return
	}
	c.span("coll:allgather", c.taPhaseStart, c.clk.Now(), int64(s.epoch))
	c.latency("coll.allreduce", c.clk.Now()-c.taOpStart)
	must(c.tg.Notify(t, gaspisim.Rank(mod(me-1, n)), Seg,
		c.ringAckNid(s.epoch), int64(s.epoch), commQueue))
}
