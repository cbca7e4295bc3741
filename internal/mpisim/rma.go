package mpisim

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memory"
)

// Win is an MPI RMA window exposing one registered segment (§II-A of the
// paper). Windows must be created collectively: every rank calls WinCreate
// in the same order, so ids match across ranks.
//
// Windows are always exposed. Completion is per-target Flush, which costs
// an ack round-trip behind all prior puts (the Belli et al. analysis the
// paper cites), or Fence, which flushes every target and runs a barrier —
// the "parallelism barrier" cost of §III.
type Win struct {
	p   *Proc
	id  int
	seg *memory.Segment
}

// WinCreate registers seg as this rank's window memory and returns the
// window handle. Collective: every rank must call it in the same order.
func (p *Proc) WinCreate(seg *memory.Segment) *Win {
	p.mu.Lock()
	id := p.nextWin
	p.nextWin++
	w := &Win{p: p, id: id, seg: seg}
	p.wins[id] = w
	p.mu.Unlock()
	return w
}

// Put writes data into dst's window at byte offset dstOff. It returns
// immediately; remote completion is only guaranteed after Flush(dst) (or a
// fence). The local buffer is snapshotted at injection, per MPI rules that
// it must not change before synchronization.
func (p *Proc) Put(w *Win, data []byte, dst Rank, dstOff int) {
	p.charge(p.prof.MPIOpOverhead)
	m := newInMsg()
	m.kind, m.src, m.win, m.off, m.size = kindPut, p.rank, w.id, dstOff, len(data)
	fm := fabric.NewMessage()
	fm.Src, fm.Dst, fm.Class, fm.Size = p.rank, dst, fabric.ClassMPI, len(data)
	fm.Payload = m
	fm.OnInjected = func() { m.data = p.snap.Take(data) }
	p.fab.Send(fm)
}

// Get reads len(buf) bytes from dst's window at dstOff into buf. The
// returned request completes when the data has arrived locally.
func (p *Proc) Get(w *Win, buf []byte, dst Rank, dstOff int) *Request {
	p.charge(p.prof.MPIOpOverhead)
	req := &Request{p: p}
	m := newInMsg()
	m.kind, m.src, m.win, m.off = kindGetReq, p.rank, w.id, dstOff
	m.size, m.recvBuf, m.rmaDone = len(buf), buf, req
	fm := fabric.NewMessage()
	fm.Src, fm.Dst, fm.Class, fm.Control = p.rank, dst, fabric.ClassMPI, true
	fm.Payload = m
	p.fab.Send(fm)
	return req
}

// Flush blocks until all RMA operations this process issued towards dst on
// this window have completed at the target. It costs a full round-trip
// queued behind those operations (the §III extra round-trip).
func (p *Proc) Flush(w *Win, dst Rank) {
	p.charge(p.prof.MPIOpOverhead)
	req := &Request{p: p}
	m := newInMsg()
	m.kind, m.src, m.win, m.rmaDone = kindFlushReq, p.rank, w.id, req
	fm := fabric.NewMessage()
	fm.Src, fm.Dst, fm.Class, fm.Control = p.rank, dst, fabric.ClassMPI, true
	fm.Payload = m
	p.fab.Send(fm)
	req.park()
}

// Fence completes all outstanding accesses on the window and synchronizes
// all ranks (the active-target fence sub-mode).
func (p *Proc) Fence(w *Win) {
	for r := 0; r < p.Size(); r++ {
		if Rank(r) != p.rank {
			p.Flush(w, Rank(r))
		}
	}
	p.Barrier()
}

// deliverRMA handles RMA protocol messages on the target side, retiring
// each to the payload pool after its last field read.
func (p *Proc) deliverRMA(m *inMsg) {
	switch m.kind {
	case kindPut:
		w := p.winByID(m.win)
		data := m.data.Bytes()
		dst, err := w.seg.Slice(m.off, len(data))
		if err != nil {
			panic(fmt.Sprintf("mpisim: Put outside window: %v", err))
		}
		copy(dst, data)
		putInMsg(m)

	case kindGetReq:
		w := p.winByID(m.win)
		src, err := w.seg.Slice(m.off, m.size)
		if err != nil {
			panic(fmt.Sprintf("mpisim: Get outside window: %v", err))
		}
		resp := newInMsg()
		resp.kind, resp.src = kindGetResp, p.rank
		resp.data = p.snap.Take(src)
		resp.recvBuf, resp.rmaDone = m.recvBuf, m.rmaDone
		reqSrc, size := m.src, m.size
		putInMsg(m)
		fm := fabric.NewMessage()
		fm.Src, fm.Dst, fm.Class, fm.Size = p.rank, reqSrc, fabric.ClassMPI, size
		fm.Payload = resp
		p.fab.Send(fm)

	case kindGetResp:
		n := copy(m.recvBuf, m.data.Bytes())
		done := m.rmaDone
		putInMsg(m)
		done.complete(Status{Count: n})

	case kindFlushReq:
		// All prior puts from m.src arrived before this request (per-pair
		// FIFO), so the ack certifies their remote completion.
		ack := newInMsg()
		ack.kind, ack.src, ack.rmaDone = kindFlushAck, p.rank, m.rmaDone
		reqSrc := m.src
		putInMsg(m)
		fm := fabric.NewMessage()
		fm.Src, fm.Dst, fm.Class, fm.Control = p.rank, reqSrc, fabric.ClassMPI, true
		fm.Payload = ack
		p.fab.Send(fm)

	case kindFlushAck:
		done := m.rmaDone
		putInMsg(m)
		done.complete(Status{})
	}
}

func (p *Proc) winByID(id int) *Win {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.wins[id]
	if !ok {
		panic(fmt.Sprintf("mpisim: rank %d has no window %d", p.rank, id))
	}
	return w
}
