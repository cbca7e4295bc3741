// Package mpisim implements the two-sided MPI subset the paper's baselines
// use (blocking and non-blocking point-to-point, Test/Testsome/Wait,
// collectives) plus the MPI one-sided interface of §II-A (windows, put/get,
// fence and passive synchronization with flush), over the simulated fabric.
//
// The model captures the properties the paper's analysis rests on:
//
//   - Tag matching with posted-receive and unexpected-message queues, with
//     MPI's non-overtaking guarantee per (source, destination) pair.
//   - The eager/rendezvous protocol split at Profile.EagerThreshold; a
//     rendezvous send costs an extra RTS/CTS control round-trip.
//   - One process-wide library lock (MPI_THREAD_MULTIPLE) whose service
//     time is charged for every Isend/Irecv/Test/Testsome call. Under
//     concurrent calls from many tasks the queueing delay on this lock
//     grows sharply — the §VI-C observation (27× MPI-time blowup) that
//     explains TAMPI's small-block collapse.
//   - MPI_Win_flush requiring a remote ack round-trip, the §III argument
//     for why the put+flush+send notification idiom underperforms.
package mpisim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// Rank aliases the fabric rank type.
type Rank = fabric.Rank

// Status describes a completed operation.
type Status struct {
	Count int // bytes received or sent
}

// World owns the MPI processes of one simulated job.
type World struct {
	fab   *fabric.Fabric
	procs []*Proc
}

// NewWorld creates one Proc per fabric rank and registers their delivery
// handlers.
func NewWorld(fab *fabric.Fabric, seed int64) *World {
	w := &World{fab: fab}
	n := fab.Topology().Ranks()
	w.procs = make([]*Proc, n)
	for r := 0; r < n; r++ {
		p := &Proc{
			world:    w,
			rank:     Rank(r),
			fab:      fab,
			clk:      fab.Clock(),
			prof:     fab.Profile(),
			libLock:  vsync.NewResource(fab.Clock()),
			jit:      fabric.NewJitterer(fabric.MPIJitterSeed(seed, r), fab.Profile().MPIJitter),
			wins:     make(map[int]*Win),
			waitName: fmt.Sprintf("mpi-wait@%d", r),
		}
		w.procs[r] = p
		fab.Register(Rank(r), fabric.ClassMPI, p.deliver)
	}
	return w
}

// Proc returns the process of the given rank.
func (w *World) Proc(r Rank) *Proc { return w.procs[r] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// SetRecorder installs the observability recorder on every process. It must
// be called before any traffic; a nil recorder (the default) keeps the
// world uninstrumented.
func (w *World) SetRecorder(rec *obs.Collector) {
	for _, p := range w.procs {
		p.rec = rec
	}
}

// Proc is one MPI process: its matching engine, library lock and windows.
type Proc struct {
	world *World
	rank  Rank
	fab   *fabric.Fabric
	clk   *vclock.VirtualClock
	prof  fabric.Profile

	// libLock models the MPI_THREAD_MULTIPLE lock: every library call is
	// served through it, so its queueing statistics measure "time inside
	// MPI" including lock waits.
	libLock *vsync.Resource
	rec     *obs.Collector // nil: uninstrumented

	// snap is the process's most recent payload snapshot (DESIGN.md §15),
	// touched only by injection hooks and delivery handlers — clock
	// callbacks, which the clock runs one at a time.
	snap memory.SnapshotCache

	// waitName is the diagnostic parker label of Wait callers, built once
	// (a per-park Sprintf shows up in the hot path of wait-heavy runs).
	waitName string

	mu       sync.Mutex // protects the matching state and jitter RNG
	jit      *fabric.Jitterer
	match    matcher
	nextWin  int
	wins     map[int]*Win
	colEpoch int // collective-epoch allocator (CollectiveEpoch)

	// Progress-engine bookkeeping (§VI-C, DESIGN.md §10): the delivery
	// handler notes each delivery here instead of taking libLock, and the
	// application's next library call charges MPIMatchCost per delivery
	// that happened strictly before its own virtual instant. The strict
	// inequality is what keeps runs deterministic: a delivery at the same
	// instant as an application call is excluded regardless of which
	// goroutine the host scheduler ran first, and any strictly earlier
	// delivery has finished its note before the clock could advance (the
	// handler is a clock callback). progOld counts deliveries before
	// progTs; progN counts deliveries at exactly progTs. Guarded by mu.
	progOld int64
	progN   int64
	progTs  time.Duration
}

// Rank returns the process rank.
func (p *Proc) Rank() Rank { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return len(p.world.procs) }

// Clock returns the process's virtual clock, for layers built on top of
// the Proc (internal/collectives) that stamp their own trace spans.
func (p *Proc) Clock() *vclock.VirtualClock { return p.clk }

// LockStats reports the library-lock resource statistics: Busy+Waited is
// the modelled total time inside MPI (the §VI-C metric).
func (p *Proc) LockStats() vsync.ResourceStats { return p.libLock.Stats() }

// Snapshot returns the library-lock statistics in the common observability
// shape.
func (p *Proc) Snapshot() obs.Snapshot {
	st := p.libLock.Stats()
	return obs.Snapshot{
		Component: "mpi",
		Rank:      int(p.rank),
		Samples: []obs.Sample{
			{Name: "lock.uses", Value: float64(st.Uses)},
			{Name: "lock.busy", Value: st.Busy.Seconds(), Unit: "s"},
			{Name: "lock.waited", Value: st.Waited.Seconds(), Unit: "s"},
			{Name: "lock.max_wait", Value: st.MaxWait.Seconds(), Unit: "s"},
		},
	}
}

// Request is a non-blocking operation handle. A receive's request is also
// its entry in the matching engine (match.go).
type Request struct {
	p *Proc
	// buf is the receive's destination buffer, or a rendezvous send's
	// source buffer (set before the RTS is sent).
	buf []byte

	// Receive selector and matcher linkage, guarded by Proc.mu while queued.
	src  Rank
	tag  int
	next *Request // next posted receive of the same list

	mu      sync.Mutex
	done    bool
	status  Status
	waiters []*vclock.Parker
}

func (r *Request) complete(st Status) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		panic("mpisim: request completed twice")
	}
	r.done = true
	r.status = st
	ws := r.waiters
	r.waiters = nil
	r.mu.Unlock()
	if rec := r.p.rec; rec != nil {
		rec.Instant(int(r.p.rank), obs.TrackMPI, obs.CatMPI, "mpi:complete",
			r.p.clk.Now(), int64(st.Count))
	}
	for _, w := range ws {
		w.Unpark()
	}
}

// park blocks the caller until the request completes. Its parker is the
// clock's pooled one (VirtualClock.PooledParker): complete drops the
// request's reference to it before it unparks it.
func (r *Request) park() {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	clk := r.p.clk
	p := clk.PooledParker()
	p.SetName(r.p.waitName)
	r.waiters = append(r.waiters, p)
	r.mu.Unlock()
	p.Park()
	clk.PutParker(p)
}

// msgKind discriminates protocol messages.
type msgKind uint8

const (
	kindEager msgKind = iota
	kindRTS
	kindCTS
	kindRData
	kindPut
	kindGetReq
	kindGetResp
	kindFlushReq
	kindFlushAck
)

// inMsg is a protocol message payload. Pooled: once a consumer passes it
// to putInMsg nothing may touch it again.
type inMsg struct {
	kind     msgKind
	released bool // set by putInMsg, cleared by newInMsg (DESIGN.md §6)
	src      Rank
	tag      int
	data     *memory.Snapshot // payload bytes, one reference; nil for control messages
	size     int

	// Unexpected-queue linkage (match.go), guarded by Proc.mu while queued.
	next *inMsg

	sendReq *Request // rendezvous: the sender-side request (RTS/CTS/RData)
	recvReq *Request // rendezvous: the receiver-side request (CTS/RData)
	recvBuf []byte   // rendezvous: bound destination buffer

	win     int // RMA: window id
	off     int // RMA: window offset
	rmaDone *Request
}

// inMsgPool recycles protocol message payloads (MPI Continuations makes
// the same argument for completion objects: reuse beats per-op
// allocation). A message is released exactly once, by the consumer that
// retired it — consume/deliver/deliverRMA after its last field read.
var inMsgPool = sync.Pool{New: func() any { return new(inMsg) }}

// newInMsg returns a pooled message with every field zero.
//
//tagalint:hotpath
func newInMsg() *inMsg {
	m := inMsgPool.Get().(*inMsg)
	m.released = false
	return m
}

// putInMsg drops m's payload snapshot reference, zeroes m, marks it
// released and returns it to the pool. A second release panics.
//
//tagalint:hotpath
func putInMsg(m *inMsg) {
	if m.released {
		panic("mpisim: putInMsg of a released inMsg")
	}
	if m.data != nil {
		m.data.Release()
	}
	*m = inMsg{released: true}
	inMsgPool.Put(m)
}

// Booking is one library call booked on the THREAD_MULTIPLE lock whose
// modelled time the caller has not spent yet: it must let Wait elapse —
// Sleep, or an armed event — and then settle the call.
type Booking struct {
	Wait          time.Duration // modelled time until the call completes
	start, waited time.Duration // call instant and effective queueing delay
}

// book reserves one library call of cost base on the THREAD_MULTIPLE lock:
// prog — the progress engine's pending matching work, serialized ahead of
// the caller's own call — plus the jittered base. The queueing delay the
// lock resource reports is the per-call share of the §VI-C "time inside
// MPI" blowup.
//
//tagalint:hotpath
func (p *Proc) book(base time.Duration) Booking {
	now := p.clk.Now()
	p.mu.Lock()
	d := p.jit.Apply(base)
	k := p.progOld
	if p.progTs < now {
		k += p.progN
		p.progN = 0
	}
	p.progOld = 0
	p.mu.Unlock()
	prog := time.Duration(k) * p.prof.MPIMatchCost
	start, done := p.libLock.Reserve(prog + d)
	return Booking{Wait: done - now, start: now, waited: start - now + prog}
}

// settle records a booked call once its time has elapsed: the effective
// queueing delay (queueing + prog) feeds the mpi.lock_wait histogram always,
// and — on a nonzero wait — an "mpi:lock_wait" span plus a lock-acquire flow
// edge (wait start → acquire) so the critical-path analysis can blame lock
// serialization (DESIGN.md §10). The edge id hashes (rank, wait start, wait
// length) — all virtual quantities, so ids are deterministic across reruns.
//
//tagalint:hotpath
func (p *Proc) settle(b Booking) {
	if p.rec == nil {
		return
	}
	p.rec.Latency("mpi.lock_wait", b.waited)
	if b.waited > 0 {
		acq := b.start + b.waited
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:lock_wait",
			b.start, acq, int64(b.waited))
		id := obs.FlowID(obs.FlowKindLock, int64(p.rank), int64(b.start), int64(b.waited))
		p.rec.Flow(int(p.rank), obs.TrackMPI, obs.CatMPI, "flow:lock", 's', b.start, id)
		p.rec.Flow(int(p.rank), obs.TrackMPI, obs.CatMPI, "flow:lock", 'f', acq, id)
	}
}

// charge serves one library call through the THREAD_MULTIPLE lock, blocking
// the caller for its queueing delay and service time.
//
//tagalint:hotpath
func (p *Proc) charge(base time.Duration) {
	b := p.book(base)
	p.clk.Sleep(b.Wait)
	p.settle(b)
}

// progressNote records that the progress engine has an incoming message to
// match: the delivery handler must not take the THREAD_MULTIPLE lock itself
// (it is a clock callback and cannot wait, and the grant order between it
// and an application call landing on the same virtual instant would depend
// on the order they were armed in), so it only
// counts the delivery and the application's next library call serves the
// matching work through the lock (§VI-C) — deliveries strictly before the
// call's instant are charged, same-instant ones deferred to the call after.
//
//tagalint:hotpath
func (p *Proc) progressNote() {
	now := p.clk.Now()
	p.mu.Lock()
	if now != p.progTs {
		p.progOld += p.progN
		p.progN = 0
		p.progTs = now
	}
	p.progN++
	p.mu.Unlock()
}

// validTag panics on reserved tags (negative values are internal).
func validTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpisim: application tags must be >= 0, got %d", tag))
	}
}

// Isend starts a non-blocking send of buf to dst with the given tag.
// The returned request completes when the buffer may be reused (eager:
// local injection; rendezvous: data injection after the CTS).
func (p *Proc) Isend(buf []byte, dst Rank, tag int) *Request {
	validTag(tag)
	return p.isend(buf, dst, tag)
}

func (p *Proc) isend(buf []byte, dst Rank, tag int) *Request {
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	p.charge(p.prof.MPIOpOverhead + p.prof.MPIMatchCost)
	if p.rec != nil {
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:isend",
			start, p.clk.Now(), int64(len(buf)))
	}
	req := &Request{p: p}
	if len(buf) <= p.prof.EagerThreshold {
		m := newInMsg()
		m.kind, m.src, m.tag, m.size = kindEager, p.rank, tag, len(buf)
		e := newEagerSend()
		e.p, e.m, e.req, e.buf = p, m, req, buf
		fm := fabric.NewMessage()
		fm.Src, fm.Dst, fm.Class, fm.Size = p.rank, dst, fabric.ClassMPI, len(buf)
		fm.Payload = m
		fm.OnInjected = e.injectedFn
		p.fab.Send(fm)
		return req
	}
	// Rendezvous: request-to-send control message; data flows after CTS.
	req.buf = buf
	m := newInMsg()
	m.kind, m.src, m.tag, m.size, m.sendReq = kindRTS, p.rank, tag, len(buf), req
	fm := fabric.NewMessage()
	fm.Src, fm.Dst, fm.Class, fm.Control = p.rank, dst, fabric.ClassMPI, true
	fm.Payload = m
	p.fab.Send(fm)
	return req
}

// eagerSend is one eager send between isend and its injection: what its
// OnInjected hook needs. Pooled, and the hook is a method value bound once
// per record, as gaspisim's bookings are, so an eager send allocates no
// closure. An MPI message has no OnFailed hook, so the fabric retransmits
// it until it is injected and runs the hook exactly once.
type eagerSend struct {
	p          *Proc
	m          *inMsg
	req        *Request
	buf        []byte
	injectedFn func() // e.injected, bound when the record is made
}

var eagerSendPool sync.Pool

// newEagerSend returns a pooled record with every data field zero.
//
//tagalint:hotpath
func newEagerSend() *eagerSend {
	if e, _ := eagerSendPool.Get().(*eagerSend); e != nil {
		return e
	}
	return makeEagerSend()
}

// makeEagerSend makes a record and binds its hook, once per record.
func makeEagerSend() *eagerSend {
	e := new(eagerSend)
	e.injectedFn = e.injected
	return e
}

// injected is the OnInjected hook of an eager send: the payload snapshot
// rides the message, and the send request completes. It returns the record
// to the pool first.
//
//tagalint:hotpath
func (e *eagerSend) injected() {
	p, m, req, buf := e.p, e.m, e.req, e.buf
	*e = eagerSend{injectedFn: e.injectedFn}
	eagerSendPool.Put(e)
	m.data = p.snap.Take(buf)
	req.complete(Status{Count: len(buf)})
}

// Irecv starts a non-blocking receive into buf from src with the given
// tag. It completes when the data is in buf.
func (p *Proc) Irecv(buf []byte, src Rank, tag int) *Request {
	validTag(tag)
	return p.irecv(buf, src, tag)
}

func (p *Proc) irecv(buf []byte, src Rank, tag int) *Request {
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	p.charge(p.prof.MPIOpOverhead + p.prof.MPIMatchCost)
	if p.rec != nil {
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:irecv",
			start, p.clk.Now(), int64(len(buf)))
	}
	req := &Request{p: p, buf: buf, src: src, tag: tag}
	p.mu.Lock()
	m := p.match.post(req)
	p.mu.Unlock()
	if m != nil {
		p.consume(m, req)
	}
	return req
}

// checkFits panics when a message of n bytes was matched to a shorter
// receive buffer: MPI_ERR_TRUNCATE, which only an application bug produces
// and which would otherwise complete the receive with a fabricated count.
//
//tagalint:hotpath
func (p *Proc) checkFits(n, buflen int, src Rank, tag int) {
	if n > buflen {
		panic(fmt.Sprintf("mpisim: rank %d: message of %d bytes from rank %d, tag %d, truncated by a %d-byte receive buffer",
			p.rank, n, src, tag, buflen))
	}
}

// consume completes the match of message m with receive r and retires m to
// the payload pool.
//
//tagalint:hotpath
func (p *Proc) consume(m *inMsg, r *Request) {
	if m.released {
		panic("mpisim: consume of a released inMsg")
	}
	switch m.kind {
	case kindEager:
		data := m.data.Bytes()
		p.checkFits(len(data), len(r.buf), m.src, m.tag)
		n := copy(r.buf, data)
		putInMsg(m)
		r.complete(Status{Count: n})
	case kindRTS:
		// Grant the sender a clear-to-send, binding our buffer.
		cts := newInMsg()
		cts.kind, cts.src, cts.tag = kindCTS, p.rank, m.tag
		cts.sendReq, cts.recvReq, cts.recvBuf = m.sendReq, r, r.buf
		dst := m.src
		putInMsg(m)
		fm := fabric.NewMessage()
		fm.Src, fm.Dst, fm.Class, fm.Control = p.rank, dst, fabric.ClassMPI, true
		fm.Payload = cts
		p.fab.Send(fm)
	default:
		panic(fmt.Sprintf("mpisim: consume of kind %d", m.kind))
	}
}

// deliver is the fabric handler: it runs as a clock callback, in arrival
// order per source.
//
//tagalint:hotpath
func (p *Proc) deliver(fm *fabric.Message) {
	p.progressNote()
	m := fm.Payload.(*inMsg)
	if m.released {
		panic("mpisim: deliver of a released inMsg")
	}
	switch m.kind {
	case kindEager, kindRTS:
		p.mu.Lock()
		r := p.match.arrive(m)
		p.mu.Unlock()
		if r != nil {
			p.consume(m, r)
		}

	case kindCTS:
		// We are the original sender: push the data.
		src := m.src // the receiver granting the CTS
		buf := m.sendReq.buf
		tag, sreq := m.tag, m.sendReq
		dm := newInMsg()
		dm.kind, dm.src, dm.tag, dm.size = kindRData, p.rank, tag, len(buf)
		dm.sendReq, dm.recvReq, dm.recvBuf = sreq, m.recvReq, m.recvBuf
		putInMsg(m)
		fm := fabric.NewMessage()
		fm.Src, fm.Dst, fm.Class, fm.Size = p.rank, src, fabric.ClassMPI, len(buf)
		fm.Payload = dm
		//lint:ignore hotalloc one closure per rendezvous is the protocol's cost, amortised over an EagerThreshold-sized transfer
		fm.OnInjected = func() {
			dm.data = p.snap.Take(buf)
			sreq.complete(Status{Count: len(buf)})
		}
		p.fab.Send(fm)

	case kindRData:
		data := m.data.Bytes()
		p.checkFits(len(data), len(m.recvBuf), m.src, m.tag)
		n := copy(m.recvBuf, data)
		rreq := m.recvReq
		putInMsg(m)
		rreq.complete(Status{Count: n})

	case kindPut, kindGetReq, kindGetResp, kindFlushReq, kindFlushAck:
		p.deliverRMA(m)

	default:
		panic(fmt.Sprintf("mpisim: deliver of kind %d", m.kind))
	}
}

// Test polls a request, charging one library call. It reports completion
// and, when complete, the receive status.
func (p *Proc) Test(r *Request) (bool, Status) {
	p.charge(p.prof.MPIOpOverhead)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done, r.status
}

// BookTestsome starts MPI_Testsome, the call TAMPI's event-driven polling
// service makes over its pending requests: it books the library call and
// returns without blocking; once Booking.Wait has elapsed, FinishTestsome
// completes it.
func (p *Proc) BookTestsome() Booking { return p.book(p.prof.MPIOpOverhead) }

// FinishTestsome settles a call booked with BookTestsome and appends the
// indices of the completed requests to idx (nil requests are skipped).
//
//tagalint:hotpath
func (p *Proc) FinishTestsome(b Booking, reqs []*Request, idx []int) []int {
	p.settle(b)
	for i, r := range reqs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		if r.done {
			idx = append(idx, i)
		}
		r.mu.Unlock()
	}
	return idx
}

// Wait blocks until the request completes and returns its status. The
// blocked interval is recorded as an "mpi:wait" span so completion waits
// are visible to the critical-path analysis.
func (p *Proc) Wait(r *Request) Status {
	p.charge(p.prof.MPIOpOverhead)
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	r.park()
	if p.rec != nil {
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:wait",
			start, p.clk.Now(), 1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Waitall blocks until every request completes. The blocked interval is
// recorded as one "mpi:wait" span (arg: request count).
func (p *Proc) Waitall(reqs []*Request) {
	p.charge(p.prof.MPIOpOverhead)
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	for _, r := range reqs {
		if r != nil {
			r.park()
		}
	}
	if p.rec != nil {
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:wait",
			start, p.clk.Now(), int64(len(reqs)))
	}
}

// Send is the blocking send.
func (p *Proc) Send(buf []byte, dst Rank, tag int) {
	r := p.Isend(buf, dst, tag)
	p.parkSpan(r)
}

// Recv is the blocking receive.
func (p *Proc) Recv(buf []byte, src Rank, tag int) Status {
	r := p.Irecv(buf, src, tag)
	p.parkSpan(r)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// parkSpan parks on r and records the blocked interval as an "mpi:wait"
// span, like Wait does.
func (p *Proc) parkSpan(r *Request) {
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	r.park()
	if p.rec != nil {
		p.rec.Span(int(p.rank), obs.TrackMPI, obs.CatMPI, "mpi:wait",
			start, p.clk.Now(), 1)
	}
}
