// The blocking-MPI backend: the shared ring schedule run as
// point-to-point rounds on reserved collective tags. Tags come from the
// mpisim process-wide epoch allocator, so these collectives can never
// collide with application tags (>= 0) nor with mpisim's own built-in
// collectives — the shared-namespace rule DESIGN.md §12 documents.

package collectives

import (
	"repro/internal/memory"
	"repro/internal/mpisim"
)

// mpiTagSeq deals reserved tags for one collective's rounds, drawing a
// fresh epoch from the process allocator whenever the current one's
// round budget (mpisim.CollectiveRounds) is spent. Every rank issues the
// same collective sequence, so per-rank allocators stay in lockstep and
// all ranks agree on every round's tag without wire traffic.
type mpiTagSeq struct {
	p     *mpisim.Proc
	epoch int
	round int
}

// newTagSeq reserves an epoch and returns the tag sequence for one
// collective.
func newTagSeq(p *mpisim.Proc) mpiTagSeq {
	return mpiTagSeq{p: p, epoch: p.CollectiveEpoch()}
}

// next returns the reserved tag of the next round.
//
//tagalint:hotpath
func (s *mpiTagSeq) next() int {
	if s.round == mpisim.CollectiveRounds {
		s.epoch = s.p.CollectiveEpoch()
		s.round = 0
	}
	t := mpisim.CollectiveTag(s.epoch, s.round)
	s.round++
	return t
}

// mpiRing runs the ring schedule of one blocking-MPI allreduce —
// reduce-scatter then allgather — over the working vector out. Each step
// is an eager isend of the outgoing chunk to the right neighbour plus a
// parking receive from the left, on the step's reserved tag.
func (c *Comm) mpiRing(epoch int, out []float64, op Op) {
	n, me := c.n, c.rank
	chunk := len(out) / n
	right := mpisim.Rank(mod(me+1, n))
	left := mpisim.Rank(mod(me-1, n))
	chunkBytes := chunk * memory.F64Bytes
	seq := newTagSeq(c.mpi)

	opStart := c.clk.Now()
	phaseStart := opStart
	for g := 0; g < c.steps; g++ {
		tag := seq.next()
		sc := ringSendChunk(me, n, g)
		copy(memory.Float64s(c.sendBuf[:chunkBytes]), out[sc*chunk:(sc+1)*chunk])
		c.flowStart(c.clk.Now(), stepFlowID(epoch, g, int(right)))
		sr := c.mpi.CollectiveIsend(c.sendBuf[:chunkBytes], right, tag)
		c.mpi.CollectiveRecv(c.recvBuf[:chunkBytes], left, tag)
		c.flowFinish(c.clk.Now(), stepFlowID(epoch, g, me))
		rc := ringRecvChunk(me, n, g)
		dst := out[rc*chunk : (rc+1)*chunk]
		if g < n-1 {
			combine(dst, memory.Float64s(c.recvBuf[:chunkBytes]), op)
		} else {
			copy(dst, memory.Float64s(c.recvBuf[:chunkBytes]))
		}
		c.compute(chunk)
		c.mpi.Wait(sr) // the send buffer is rewritten next step
		if g == n-2 {
			c.span("coll:reduce_scatter", phaseStart, c.clk.Now(), int64(epoch))
			phaseStart = c.clk.Now()
		}
	}
	c.span("coll:allgather", phaseStart, c.clk.Now(), int64(epoch))
	c.latency("coll.allreduce", c.clk.Now()-opStart)
}
