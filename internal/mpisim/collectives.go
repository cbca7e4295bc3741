package mpisim

import "fmt"

// Collectives are implemented over point-to-point messages with reserved
// negative tags, as real MPI libraries do internally (MPI_Barrier,
// MPI_Bcast, MPI_Allreduce). Every rank must call each collective in the
// same order (the MPI ordering requirement); a per-process epoch counter
// keeps successive collectives' internal tags distinct so rounds of
// adjacent collectives cannot mismatch.
//
// This file holds the reserved-tag allocator, the send/receive primitives
// on reserved tags, and Barrier; the data-carrying collectives live in
// internal/collectives, over all three backends. The epoch counter is the
// single reserved-tag allocator of the process: Barrier and the
// internal/collectives layer both draw from it through CollectiveEpoch, so
// their in-flight tags can never collide — and neither can ever collide
// with application point-to-point traffic, whose tags are validated
// non-negative (validTag) while every collective tag is <= -2.

// CollectiveRounds is the number of reserved point-to-point tags one
// collective epoch spans. A collective needing more rounds (a long ring
// schedule) must reserve further epochs through CollectiveEpoch.
const CollectiveRounds = 64

// CollectiveTag builds the reserved internal tag of (epoch, round), the
// namespace real MPI libraries hide behind MPI_COMM_WORLD's internal
// context id. Application tags are >= 0 and collective tags start at -2
// (-1 is never minted), and a receive matches its tag exactly, so neither
// kind of traffic can take a message of the other. The round must lie in
// [0, CollectiveRounds): silently folding an out-of-range round into the
// next epoch's tag space would alias two distinct collectives, so it
// panics instead.
func CollectiveTag(epoch, round int) int {
	if round < 0 || round >= CollectiveRounds {
		panic(fmt.Sprintf("mpisim: collective round %d outside [0,%d) — reserve another epoch via CollectiveEpoch", round, CollectiveRounds))
	}
	return -(2 + (epoch%(1<<20))*CollectiveRounds + round)
}

// CollectiveEpoch reserves the next collective epoch of this process and
// returns it. Because every rank issues the same collective sequence (the
// MPI ordering requirement), identical call sites draw identical epochs on
// every rank without any wire traffic — the same trick MPI implementations
// use for context-id agreement on MPI_COMM_WORLD.
func (p *Proc) CollectiveEpoch() int {
	p.mu.Lock()
	e := p.colEpoch
	p.colEpoch++
	p.mu.Unlock()
	return e
}

// CollectiveIsend starts a non-blocking send on a reserved collective tag
// (one obtained from CollectiveTag). It is the send primitive of the
// internal/collectives layer; the public Isend rejects negative tags, so
// collective traffic cannot be forged from application code by accident.
func (p *Proc) CollectiveIsend(buf []byte, dst Rank, tag int) *Request {
	validColTag(tag)
	return p.isend(buf, dst, tag)
}

// CollectiveRecv blocks until a message with the reserved collective tag
// arrives from src, recording the blocked interval as an "mpi:wait" span
// like Recv does, so collective waits are visible to the critical-path
// analysis.
func (p *Proc) CollectiveRecv(buf []byte, src Rank, tag int) Status {
	validColTag(tag)
	r := p.irecv(buf, src, tag)
	p.parkSpan(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// validColTag panics unless tag is a reserved collective tag (<= -2).
func validColTag(tag int) {
	if tag > -2 {
		panic(fmt.Sprintf("mpisim: collective tag must be <= -2 (from CollectiveTag), got %d", tag))
	}
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// ceil(log2 n) rounds of control messages).
func (p *Proc) Barrier() {
	n := p.Size()
	if n == 1 {
		return
	}
	epoch := p.CollectiveEpoch()
	me := int(p.rank)
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		to := Rank((me + dist) % n)
		from := Rank((me - dist + n) % n)
		tag := CollectiveTag(epoch, k)
		sr := p.isend(nil, to, tag)
		p.recvInternal(nil, from, tag)
		sr.park()
	}
}

// recvInternal is a blocking internal receive (reserved tags allowed).
func (p *Proc) recvInternal(buf []byte, src Rank, tag int) Status {
	r := p.irecv(buf, src, tag)
	r.park()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}
