// Package gaspisim implements the GASPI one-sided interface of §II-B of the
// paper over the simulated fabric: memory segments, communication queues,
// write/read/write_notify operations and remote notifications, plus the
// fine-grained local-completion extension the paper adds to GASPI in §IV-C
// (gaspi_operation_submit with a per-operation tag and gaspi_request_wait
// returning the tags of completed low-level requests).
//
// Modelled properties the paper relies on:
//
//   - Operations posted to the same queue towards the same target arrive in
//     posting order; the notification of a write_notify arrives just after
//     its data is written in the remote memory.
//   - Queues multiplex communications: each queue has its own post
//     resource, so concurrent posters contend per queue, not globally —
//     the contrast with the MPI_THREAD_MULTIPLE lock of package mpisim.
//   - A write+notify expands to two low-level requests (one for the write,
//     one for the notify), both tagged with the submitter's tag, exactly
//     the accounting TAGASPI's event counters expect (§IV-D).
package gaspisim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// Rank aliases the fabric rank type (gaspi_rank_t).
type Rank = fabric.Rank

// SegmentID aliases the memory segment identifier (gaspi_segment_id_t).
type SegmentID = memory.SegmentID

// NotificationID identifies one notification slot within a segment
// (gaspi_notification_id_t).
type NotificationID int

// Timeout sentinels for RequestWait and NotifyWaitSome.
const (
	// Test polls without blocking (GASPI_TEST).
	Test time.Duration = 0
	// Block waits indefinitely (GASPI_BLOCK).
	Block time.Duration = -1
)

// OpType enumerates the §IV-C submittable operation types.
type OpType uint8

// Operation types.
const (
	OpWrite OpType = iota
	OpWriteNotify
	OpNotify
	OpRead
)

// Operation is the descriptor accepted by Submit — the
// gaspi_operation_submit extension: any one-sided operation plus a caller
// tag identifying the low-level requests it creates.
type Operation struct {
	Type      OpType
	Tag       any // opaque; returned by RequestWait on local completion
	LocalSeg  SegmentID
	LocalOff  int
	Remote    Rank
	RemoteSeg SegmentID
	RemoteOff int
	Size      int
	NotifyID  NotificationID
	NotifyVal int64
	Queue     int
}

// CompletedRequest reports one locally-completed low-level request, as
// returned by the gaspi_request_wait extension. OK is false when the
// request failed and its queue entered the error state (errstate.go).
type CompletedRequest struct {
	Tag any
	OK  bool
}

// World owns the GASPI processes of one simulated job.
type World struct {
	fab   *fabric.Fabric
	procs []*Proc
	// queueNames holds the Snapshot sample names of each queue, built once
	// per world rather than once per queue, rank and snapshot.
	queueNames [][3]string
}

// NewWorld creates one Proc per fabric rank with the given queue count —
// the collective effect of gaspi_proc_init across the job.
func NewWorld(fab *fabric.Fabric, queues int, seed int64) *World {
	if queues <= 0 {
		panic(fmt.Sprintf("gaspisim: invalid queue count %d", queues))
	}
	w := &World{fab: fab, queueNames: make([][3]string, queues)}
	for i := range w.queueNames {
		pre := fmt.Sprintf("queue%d.", i)
		w.queueNames[i] = [3]string{pre + "posts", pre + "busy", pre + "waited"}
	}
	n := fab.Topology().Ranks()
	w.procs = make([]*Proc, n)
	for r := 0; r < n; r++ {
		p := &Proc{
			world:       w,
			rank:        Rank(r),
			fab:         fab,
			clk:         fab.Clock(),
			prof:        fab.Profile(),
			reg:         memory.NewRegistry(),
			jit:         fabric.NewJitterer(fabric.GASPIJitterSeed(seed, r), fab.Profile().MPIJitter/4),
			segs:        make(map[SegmentID]*segState),
			notifyName:  fmt.Sprintf("gaspi-notify@%d", r),
			reqwaitName: fmt.Sprintf("gaspi-reqwait@%d", r),
			waitName:    fmt.Sprintf("gaspi-wait@%d", r),
		}
		p.queues = make([]*queue, queues)
		for q := range p.queues {
			p.queues[q] = &queue{p: p, idx: q, res: vsync.NewResource(fab.Clock())}
		}
		w.procs[r] = p
		fab.Register(Rank(r), fabric.ClassGASPI, p.deliver)
	}
	return w
}

// Proc returns the process of the given rank.
func (w *World) Proc(r Rank) *Proc { return w.procs[r] }

// SetRecorder installs the observability recorder on every process. It must
// be called before any traffic; a nil recorder (the default) keeps the
// world uninstrumented.
func (w *World) SetRecorder(rec *obs.Collector) {
	for _, p := range w.procs {
		p.rec = rec
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Proc is one GASPI process.
type Proc struct {
	world *World
	rank  Rank
	fab   *fabric.Fabric
	clk   *vclock.VirtualClock
	prof  fabric.Profile
	jit   *fabric.Jitterer
	reg   *memory.Registry
	rec   *obs.Collector // nil: uninstrumented

	// snap is the process's most recent payload snapshot (DESIGN.md §15),
	// touched only by injection hooks and delivery handlers — clock
	// callbacks, which the clock runs one at a time.
	snap memory.SnapshotCache

	queues []*queue

	// Diagnostic parker labels, built once per process instead of one
	// Sprintf per blocking wait.
	notifyName, reqwaitName, waitName string

	// notifSets counts the notifications set on this rank, ever. A poller
	// whose last scan found a slot unset need not look again until the
	// count moves (NotificationsSet).
	notifSets atomic.Uint64

	// activity, if set, is called on every input a task-aware poller of
	// this rank has to see: a notification set here and a post (OnActivity).
	activity func()

	mu      sync.Mutex
	segs    map[SegmentID]*segState
	segWait map[SegmentID]chan struct{} // closed by SegmentCreate; see waitSegment
}

// segState holds a segment's notification space. flows carries the causal
// flow id of each fulfilled-but-not-yet-observed notification (instrumented
// runs only): the first observer — a NotifyWaitSome wake or a NotifyReset —
// consumes it and finishes the notification's flow edge.
type segState struct {
	notifs  map[NotificationID]int64
	flows   map[NotificationID]int64
	waiters []*notifWaiter
}

type notifWaiter struct {
	begin, num NotificationID
	p          *vclock.Parker
	fired      bool
}

// queue is one communication queue: a post resource plus the completed
// low-level request list of the §IV-C extension and the error state of
// the spec's timeout-based fault handling (errstate.go).
type queue struct {
	p           *Proc
	idx         int
	res         *vsync.Resource
	mu          sync.Mutex
	completed   []CompletedRequest
	ncompleted  atomic.Int32 // len(completed), readable without mu
	outstanding int
	waiters     []*vclock.Parker // RequestWait / Wait blockers
	errored     bool             // QueueError: posts fast-fail until QueueRepair
	errors      int64            // failed operations observed, for Snapshot
}

// Rank returns the process rank (gaspi_proc_rank).
func (p *Proc) Rank() Rank { return p.rank }

// Clock returns the process's time source (shared by every rank of the
// job). Task-aware layers use it to schedule retry back-off in modelled
// time.
func (p *Proc) Clock() *vclock.VirtualClock { return p.clk }

// Size returns the world size (gaspi_proc_num).
func (p *Proc) Size() int { return len(p.world.procs) }

// Queues returns the number of communication queues (gaspi_queue_num).
func (p *Proc) Queues() int { return len(p.queues) }

// SegmentCreate allocates and registers a zeroed segment
// (gaspi_segment_create).
func (p *Proc) SegmentCreate(id SegmentID, size int) (*memory.Segment, error) {
	return p.SegmentCreateTimed(id, size, size)
}

// SegmentCreateTimed is SegmentCreate for a segment of logical size bytes
// backed by one width-byte slot (memory.NewTimedSegment). Local and remote
// offsets are checked against the logical size either way.
func (p *Proc) SegmentCreateTimed(id SegmentID, size, width int) (*memory.Segment, error) {
	seg, err := p.reg.Create(id, size, width)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.segs[id] = &segState{notifs: make(map[NotificationID]int64)}
	if ch, ok := p.segWait[id]; ok {
		delete(p.segWait, id)
		close(ch) // release deliveries racing this registration (waitSegment)
	}
	p.mu.Unlock()
	return seg, nil
}

// waitSegment blocks the calling delivery until this rank has registered
// segment id. A delivery and a registration sharing one virtual instant —
// a zero-cost profile runs its whole setup at t=0 — have no modelled-time
// order, and real GASPI's gaspi_segment_create is collective, so an app
// whose target rank creates the segment "now" is correct even if that
// rank's goroutine has not reached the call yet in host time. The wait
// costs no modelled time: the blocked delivery callback holds the virtual
// clock still, so the registration due at this instant still happens at
// it. Callbacks run only while every registered goroutine is parked, so
// the registration can only come from a goroutine this callback already
// woke (an OnInjected hook, an earlier delivery of the same cascade). A
// registration that never comes — the app creates the segment at a LATER
// virtual instant than the write targeting it — is an application bug;
// the host timeout turns it into a diagnosable panic instead of a hang.
func (p *Proc) waitSegment(id SegmentID) {
	p.mu.Lock()
	if _, ok := p.segs[id]; ok {
		p.mu.Unlock()
		return
	}
	ch, ok := p.segWait[id]
	if !ok {
		if p.segWait == nil {
			p.segWait = make(map[SegmentID]chan struct{})
		}
		ch = make(chan struct{})
		p.segWait[id] = ch
	}
	p.mu.Unlock()
	//lint:ignore taskctx a host-side wait inside a delivery callback, on purpose: only a goroutine this callback woke can close ch, it does so without virtual time, and the watchdog arm bounds the wait
	select {
	//lint:ignore taskctx the select above
	case <-ch:
	//lint:ignore detlint,taskctx host-side stall watchdog: correct runs never reach this arm, it only converts an app-level ordering bug into a panic
	case <-time.After(10 * time.Second):
		panic(fmt.Sprintf("gaspisim: delivery to rank %d stalled: segment %d is not registered and no registration arrived at the current virtual instant (segment created after the write targeting it?)", p.rank, id))
	}
}

// Segment returns a registered segment (gaspi_segment_ptr).
func (p *Proc) Segment(id SegmentID) (*memory.Segment, error) {
	return p.reg.Lookup(id)
}

// protocol message payload. Pooled: once a consumer passes it to putGMsg
// nothing may touch it again.
type gMsg struct {
	kind      OpType
	released  bool // set by putGMsg, cleared by newGMsg (DESIGN.md §6)
	src       Rank
	seg       SegmentID
	off       int
	data      *memory.Snapshot // payload bytes, one reference; nil for notify and read requests
	size      int
	notify    bool
	notifyID  NotificationID
	notifyVal int64
	postTs    time.Duration // virtual post time; stamped only when recording

	// read protocol
	replySeg SegmentID
	replyOff int
	replyQ   *queue
	replyTag any
}

// gMsgPool recycles protocol message payloads. A message is released
// exactly once, by the rank that retired it in deliver (its OnInjected
// hook, if any, ran strictly earlier, at local completion).
var gMsgPool = sync.Pool{New: func() any { return new(gMsg) }}

// newGMsg returns a pooled message with every field zero.
//
//tagalint:hotpath
func newGMsg() *gMsg {
	m := gMsgPool.Get().(*gMsg)
	m.released = false
	return m
}

// putGMsg drops m's payload snapshot reference, zeroes m, marks it
// released and returns it to the pool. A second release panics.
//
//tagalint:hotpath
func putGMsg(m *gMsg) {
	if m.released {
		panic("gaspisim: putGMsg of a released gMsg")
	}
	if m.data != nil {
		m.data.Release()
	}
	*m = gMsg{released: true}
	gMsgPool.Put(m)
}

// queueAt returns the queue with the given id, failing a bad index the
// way the spec fails a bad queue argument (GASPI_ERR_INV_QUEUE) — with an
// explicit diagnostic instead of a bare slice-bounds panic.
func (p *Proc) queueAt(queueID int) *queue {
	if queueID < 0 || queueID >= len(p.queues) {
		panic(fmt.Sprintf("gaspisim: GASPI_ERR_INV_QUEUE: queue %d out of range on rank %d (process has %d queues)",
			queueID, p.rank, len(p.queues)))
	}
	return p.queues[queueID]
}

// Submit posts one operation to its queue — gaspi_operation_submit of
// §IV-C. It returns once the operation is handed to the NIC queue; local
// completion is observed through RequestWait with the operation's Tag. It
// is Book, a Sleep for the time Book returns, and the send.
func (p *Proc) Submit(op Operation) error {
	send, d, err := p.Book(op)
	if err != nil {
		return err
	}
	p.clk.Sleep(d)
	send()
	return nil
}

// Book is the first half of Submit, for callers that cannot block (a step
// task, tasking.NonBlocking): it validates op, builds its message and
// reserves the queue's post resource. The caller spends d of modelled time
// on its core, as Submit sleeps it, and then calls send, which hands the
// message to the fabric; send is a function value Book keeps bound, so a
// post allocates no closure. An operation on a queue in the error state
// fails locally here, and send does nothing.
func (p *Proc) Book(op Operation) (send func(), d time.Duration, err error) {
	if op.Queue < 0 || op.Queue >= len(p.queues) {
		return nil, 0, fmt.Errorf("gaspisim: queue %d out of range", op.Queue)
	}
	q := p.queues[op.Queue]
	if op.Remote < 0 || int(op.Remote) >= p.Size() {
		return nil, 0, fmt.Errorf("gaspisim: invalid remote rank %d", op.Remote)
	}

	// Validate per type. A read lands its response in its local range, so
	// that range is checked here, where the caller gets the error, as a
	// write's is.
	var buf []byte
	switch op.Type {
	case OpWrite, OpWriteNotify, OpRead:
		seg, err := p.reg.Lookup(op.LocalSeg)
		if err != nil {
			return nil, 0, err
		}
		if buf, err = seg.Slice(op.LocalOff, op.Size); err != nil {
			return nil, 0, err
		}
	case OpNotify:
	default:
		return nil, 0, fmt.Errorf("gaspisim: unknown operation type %d", op.Type)
	}
	nreq := 1
	if op.Type == OpWriteNotify {
		nreq = 2 // write + notify, as GPI-2 chains two ibverbs requests
	}
	if p.activity != nil {
		p.activity()
	}

	// A queue in the error state refuses posts until repaired
	// (gaspi_queue_purge): fail the operation locally, without touching
	// the fabric, so the caller's completion accounting observes the same
	// nreq failed low-level requests through RequestWait as it would for
	// a fabric-level failure.
	q.mu.Lock()
	errored := q.errored
	if !errored {
		q.outstanding += nreq
	}
	q.mu.Unlock()
	if errored {
		q.completeLocalErr(op.Tag, nreq, false)
		return sendNothing, 0, nil
	}

	m := newGMsg()
	m.kind, m.src, m.seg, m.off, m.size = op.Type, p.rank, op.RemoteSeg, op.RemoteOff, op.Size
	m.notify = op.Type == OpWriteNotify || op.Type == OpNotify
	m.notifyID, m.notifyVal = op.NotifyID, op.NotifyVal
	if op.Type == OpRead {
		m.replySeg, m.replyOff, m.replyQ, m.replyTag = op.LocalSeg, op.LocalOff, q, op.Tag
	}
	b := newBooking()
	b.q, b.m, b.dst, b.tag, b.nreq, b.buf = q, m, op.Remote, op.Tag, nreq, buf
	now := p.clk.Now()
	start, done := q.res.Reserve(p.jit.Apply(p.prof.RDMAOpOverhead))
	if p.rec != nil {
		b.booked, b.waited = now, start-now
	}
	return b.sendFn, done - now, nil
}

// sendNothing is the send half of a post that failed locally in Book.
func sendNothing() {}

// booking is one post between Book and its local completion: the queue and
// message its send needs, and what its injection or failure hook reports.
// Pooled: a booking is released by the one hook of its message that runs
// (the fabric runs OnInjected or OnFailed, never both), and keeps its bound
// hooks across reuse, so a post allocates no closure.
type booking struct {
	q        *queue
	m        *gMsg
	dst      Rank
	tag      any
	nreq     int
	buf      []byte        // the local range: a write's payload, a read's destination
	booked   time.Duration // Book's instant; recorded runs only
	waited   time.Duration // queueing delay for the post resource; recorded runs only
	released bool          // set by putBooking, cleared by newBooking (DESIGN.md §6)

	sendFn, injectedFn, failedFn func() // bound once, when the record is made
}

// bookingPool has no New function: the hooks' method values refer back to
// the pool through putBooking, so makeBooking fills a miss instead.
var bookingPool sync.Pool

// newBooking returns a pooled booking with every data field zero.
//
//tagalint:hotpath
func newBooking() *booking {
	b, _ := bookingPool.Get().(*booking)
	if b == nil {
		return makeBooking()
	}
	b.released = false
	return b
}

// makeBooking makes a booking and binds its hooks, once per record.
func makeBooking() *booking {
	b := new(booking)
	b.sendFn, b.injectedFn, b.failedFn = b.send, b.injected, b.failed
	return b
}

// putBooking zeroes b's data, marks it released and returns it to the pool.
// A second release panics.
//
//tagalint:hotpath
func putBooking(b *booking) {
	if b.released {
		panic("gaspisim: putBooking of a released booking")
	}
	*b = booking{released: true, sendFn: b.sendFn, injectedFn: b.injectedFn, failedFn: b.failedFn}
	bookingPool.Put(b)
}

// send is the second half of a post: its reservation of the queue's post
// resource has been served, so the message goes to the fabric.
//
//tagalint:hotpath
func (b *booking) send() {
	if b.released {
		panic("gaspisim: send of a released booking")
	}
	q, m := b.q, b.m
	p := q.p
	if rec := p.rec; rec != nil {
		now := p.clk.Now()
		rec.Latency("gaspi.post_wait", b.waited)
		rec.Span(int(p.rank), obs.QueueTrack(q.idx), obs.CatGaspi,
			opSpanName(m.kind), b.booked, now, int64(m.size))
		m.postTs = now
	}
	fm := fabric.NewMessage()
	fm.Src, fm.Dst, fm.Class, fm.Lane = p.rank, b.dst, fabric.ClassGASPI, q.idx
	fm.Payload = m
	if m.kind == OpWrite || m.kind == OpWriteNotify { // local bytes ride the message
		fm.Size = m.size
	} else {
		fm.Control = true
	}
	fm.OnInjected, fm.OnFailed = b.injectedFn, b.failedFn
	p.fab.Send(fm)
}

// injected is the OnInjected hook of a post: a write or notify completes
// locally here, a write taking the snapshot of its payload. A read
// completes when its response lands (deliver's opReadResp); the response
// direction carries no hook: like hardware read completion, it is
// retransmitted transparently.
//
//tagalint:hotpath
func (b *booking) injected() {
	q, m := b.q, b.m
	if m.kind != OpRead {
		if m.kind != OpNotify {
			m.data = q.p.snap.Take(b.buf)
		}
		q.completeLocal(b.tag, b.nreq)
		q.p.recComplete(q.idx, len(b.buf), m.postTs) // a notify's buf is nil
	}
	putBooking(b)
}

// failed is the OnFailed hook of a post.
func (b *booking) failed() {
	b.q.completeLocalErr(b.tag, b.nreq, true)
	putBooking(b)
}

// opSpanName is the timeline label of a posted operation.
func opSpanName(t OpType) string {
	switch t {
	case OpWrite:
		return "gaspi:write"
	case OpWriteNotify:
		return "gaspi:write_notify"
	case OpNotify:
		return "gaspi:notify"
	case OpRead:
		return "gaspi:read"
	}
	return "gaspi:op"
}

// recComplete records a local completion: a timeline instant on the queue's
// track and the post-to-completion latency. postTs comes from the posting
// rank, which is valid across goroutines because all ranks share one
// virtual clock.
func (p *Proc) recComplete(queueID, size int, postTs time.Duration) {
	if p.rec == nil {
		return
	}
	now := p.clk.Now()
	p.rec.Instant(int(p.rank), obs.QueueTrack(queueID), obs.CatGaspi,
		"gaspi:complete", now, int64(size))
	p.rec.Latency("gaspi.local_completion", now-postTs)
}

// completeLocal records nreq completed low-level requests with the given
// tag and wakes waiters.
func (q *queue) completeLocal(tag any, nreq int) {
	q.mu.Lock()
	for i := 0; i < nreq; i++ {
		q.completed = append(q.completed, CompletedRequest{Tag: tag, OK: true})
	}
	q.ncompleted.Add(int32(nreq))
	q.outstanding -= nreq
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, w := range ws {
		w.Unpark()
	}
}

// WriteNotify posts a write+notify (gaspi_write_notify, §II-B): size bytes
// from the local segment to the remote one, followed by a notification
// that arrives just after the data.
func (p *Proc) WriteNotify(localSeg SegmentID, localOff int, remote Rank,
	remoteSeg SegmentID, remoteOff, size int,
	id NotificationID, value int64, queueID int, tag any) error {
	return p.Submit(Operation{
		Type: OpWriteNotify, Tag: tag,
		LocalSeg: localSeg, LocalOff: localOff,
		Remote: remote, RemoteSeg: remoteSeg, RemoteOff: remoteOff, Size: size,
		NotifyID: id, NotifyVal: value, Queue: queueID,
	})
}

// Write posts a plain one-sided write (gaspi_write).
func (p *Proc) Write(localSeg SegmentID, localOff int, remote Rank,
	remoteSeg SegmentID, remoteOff, size, queueID int, tag any) error {
	return p.Submit(Operation{
		Type: OpWrite, Tag: tag,
		LocalSeg: localSeg, LocalOff: localOff,
		Remote: remote, RemoteSeg: remoteSeg, RemoteOff: remoteOff, Size: size,
		Queue: queueID,
	})
}

// Notify posts a pure notification to the remote segment's space
// (gaspi_notify).
func (p *Proc) Notify(remote Rank, remoteSeg SegmentID,
	id NotificationID, value int64, queueID int, tag any) error {
	return p.Submit(Operation{
		Type: OpNotify, Tag: tag,
		Remote: remote, RemoteSeg: remoteSeg,
		NotifyID: id, NotifyVal: value, Queue: queueID,
	})
}

// Read posts a one-sided read (gaspi_read): size bytes from the remote
// segment into the local one. Local completion (the tag surfacing in
// RequestWait) means the data has arrived.
func (p *Proc) Read(localSeg SegmentID, localOff int, remote Rank,
	remoteSeg SegmentID, remoteOff, size, queueID int, tag any) error {
	return p.Submit(Operation{
		Type: OpRead, Tag: tag,
		LocalSeg: localSeg, LocalOff: localOff,
		Remote: remote, RemoteSeg: remoteSeg, RemoteOff: remoteOff, Size: size,
		Queue: queueID,
	})
}

// deliver is the fabric handler for GASPI traffic. Each payload is
// retired to the pool after its last field read (its OnInjected hook ran
// strictly earlier, at local completion).
//
//tagalint:hotpath
func (p *Proc) deliver(fm *fabric.Message) {
	m := fm.Payload.(*gMsg)
	if m.released {
		panic("gaspisim: deliver of a released gMsg")
	}
	switch m.kind {
	case OpWrite, OpWriteNotify:
		p.waitSegment(m.seg)
		seg, err := p.reg.Lookup(m.seg)
		if err != nil {
			panic(fmt.Sprintf("gaspisim: write to rank %d: %v", p.rank, err))
		}
		data := m.data.Bytes()
		dst, err := seg.Slice(m.off, len(data))
		if err != nil {
			panic(fmt.Sprintf("gaspisim: write outside segment: %v", err))
		}
		copy(dst, data)
		if m.notify {
			nflow := p.notifyFlowOf(fm, m)
			p.setNotification(m.seg, m.notifyID, m.notifyVal, nflow)
			p.recNotify(m.notifyID, m.postTs, nflow)
		}
		putGMsg(m)

	case OpNotify:
		p.waitSegment(m.seg)
		nflow := p.notifyFlowOf(fm, m)
		p.setNotification(m.seg, m.notifyID, m.notifyVal, nflow)
		p.recNotify(m.notifyID, m.postTs, nflow)
		putGMsg(m)

	case OpRead:
		p.waitSegment(m.seg)
		seg, err := p.reg.Lookup(m.seg)
		if err != nil {
			panic(fmt.Sprintf("gaspisim: read at rank %d: %v", p.rank, err))
		}
		src, err := seg.Slice(m.off, m.size)
		if err != nil {
			panic(fmt.Sprintf("gaspisim: read outside segment: %v", err))
		}
		resp := newGMsg()
		resp.kind, resp.src = opReadResp, p.rank
		resp.seg, resp.off, resp.postTs = m.replySeg, m.replyOff, m.postTs
		resp.data = p.snap.Take(src)
		resp.replyQ, resp.replyTag = m.replyQ, m.replyTag
		reqSrc, size := m.src, m.size
		putGMsg(m)
		out := fabric.NewMessage()
		out.Src, out.Dst, out.Class, out.Lane = p.rank, reqSrc, fabric.ClassGASPI, 0
		out.Size, out.Payload = size, resp
		p.fab.Send(out)

	case opReadResp:
		seg, err := p.reg.Lookup(m.seg)
		if err != nil {
			panic(fmt.Sprintf("gaspisim: read response at rank %d: %v", p.rank, err))
		}
		data := m.data.Bytes()
		dst, err := seg.Slice(m.off, len(data))
		if err != nil {
			panic(fmt.Sprintf("gaspisim: read response outside segment: %v", err))
		}
		n := copy(dst, data)
		replyQ, replyTag, postTs := m.replyQ, m.replyTag, m.postTs
		putGMsg(m)
		replyQ.completeLocal(replyTag, 1)
		p.recComplete(replyQ.idx, n, postTs)
	}
}

// recNotify records a fulfilled remote notification: an instant on the
// notification track plus the post-to-fulfilment latency (the figure the
// paper's §IV-D polling-frequency discussion turns on). When the
// notification carries a causal flow id, fulfilment starts the
// notification's flow edge; the waiter that observes it finishes it.
func (p *Proc) recNotify(id NotificationID, postTs time.Duration, flow int64) {
	if p.rec == nil {
		return
	}
	now := p.clk.Now()
	p.rec.Instant(int(p.rank), obs.TrackNotify, obs.CatNotify,
		"notify:fulfill", now, int64(id))
	if flow != 0 {
		p.rec.Flow(int(p.rank), obs.TrackNotify, obs.CatNotify, "flow:notify", 's', now, flow)
	}
	p.rec.Latency("gaspi.notify_latency", now-postTs)
}

// notifyFlowOf derives a notification's causal-flow id from the carrying
// message's fabric flow id, continuing the message's edge chain into the
// waiter that eventually observes the notification. Zero (no edge) when
// uninstrumented.
//
//tagalint:hotpath
func (p *Proc) notifyFlowOf(fm *fabric.Message, m *gMsg) int64 {
	if p.rec == nil || fm.Flow == 0 {
		return 0
	}
	return obs.FlowID(obs.FlowKindNotify, fm.Flow, int64(m.seg), int64(m.notifyID))
}

// takeNotifyFlow removes and returns the stashed flow id of a fulfilled
// notification, zero if none: only the first observer finishes the edge.
func (p *Proc) takeNotifyFlow(seg SegmentID, id NotificationID) int64 {
	if p.rec == nil {
		return 0
	}
	p.mu.Lock()
	st, ok := p.segs[seg]
	if !ok || st.flows == nil {
		p.mu.Unlock()
		return 0
	}
	f := st.flows[id]
	if f != 0 {
		delete(st.flows, id)
	}
	p.mu.Unlock()
	return f
}

// opReadResp is the internal read-response kind (not user-submittable).
const opReadResp OpType = 0xFF

// setNotification stores a notification value (stashing its causal flow id
// when nonzero) and wakes matching waiters.
func (p *Proc) setNotification(seg SegmentID, id NotificationID, val int64, flow int64) {
	p.mu.Lock()
	st, ok := p.segs[seg]
	if !ok {
		p.mu.Unlock()
		panic(fmt.Sprintf("gaspisim: notification for unknown segment %d on rank %d", seg, p.rank))
	}
	st.notifs[id] = val
	p.notifSets.Add(1)
	if flow != 0 {
		if st.flows == nil {
			st.flows = make(map[NotificationID]int64)
		}
		st.flows[id] = flow
	}
	var wake []*notifWaiter
	keep := st.waiters[:0]
	for _, w := range st.waiters {
		if id >= w.begin && id < w.begin+w.num {
			w.fired = true
			wake = append(wake, w)
		} else {
			keep = append(keep, w)
		}
	}
	st.waiters = keep
	p.mu.Unlock()
	for _, w := range wake {
		w.p.Unpark()
	}
	if p.activity != nil {
		p.activity()
	}
}

// NotifyReset atomically reads and clears a notification slot, returning
// its value and whether it was set (gaspi_notify_reset). Resetting a slot
// whose flow edge is still unobserved finishes the edge at the reset time —
// this is the observation point of TAGASPI's polling service.
func (p *Proc) NotifyReset(seg SegmentID, id NotificationID) (int64, bool) {
	p.mu.Lock()
	st, ok := p.segs[seg]
	if !ok {
		p.mu.Unlock()
		return 0, false
	}
	v, set := st.notifs[id]
	var flow int64
	if set {
		delete(st.notifs, id)
		if st.flows != nil {
			flow = st.flows[id]
			if flow != 0 {
				delete(st.flows, id)
			}
		}
	}
	p.mu.Unlock()
	if flow != 0 && p.rec != nil {
		p.rec.Flow(int(p.rank), obs.TrackNotify, obs.CatNotify, "flow:notify",
			'f', p.clk.Now(), flow)
	}
	return v, set
}

// OnActivity installs fn, which the process calls on every notification
// set on it and every operation posted from it, before the post touches a
// queue. A task-aware library hands it its polling service's wake
// (tasking.Service.Wake). Call it before the job runs.
func (p *Proc) OnActivity(fn func()) { p.activity = fn }

// NotificationsSet returns how many notifications have been set on this
// rank so far. A slot turns from unset to set only together with an
// increment, so a caller that reads the count, then finds a slot unset, can
// skip re-checking the slot while the count still reads the same.
func (p *Proc) NotificationsSet() uint64 { return p.notifSets.Load() }

// NotifyWaitSome blocks until some notification in [begin, begin+num) is
// set, returning its id (gaspi_notify_waitsome). With timeout Test it polls
// once; with Block it waits indefinitely; otherwise it waits at most the
// timeout and returns ok=false on expiry — the GASPI_TIMEOUT result the
// spec's error-handling idiom is built on. Every blocking or timed wait —
// including one that times out — records its span and a
// "gaspi.notify_wait" latency sample through a single nil-checked recorder
// path, so metrics-only collectors observe the wait too.
func (p *Proc) NotifyWaitSome(seg SegmentID, begin NotificationID, num int,
	timeout time.Duration) (NotificationID, bool) {
	if timeout == Test {
		return p.notifyWaitSome(seg, begin, num, timeout)
	}
	var start time.Duration
	if p.rec != nil {
		start = p.clk.Now()
	}
	id, ok := p.notifyWaitSome(seg, begin, num, timeout)
	if p.rec != nil {
		now := p.clk.Now()
		if ok {
			if flow := p.takeNotifyFlow(seg, id); flow != 0 {
				p.rec.Flow(int(p.rank), obs.TrackNotify, obs.CatNotify, "flow:notify",
					'f', now, flow)
			}
		}
		p.rec.Span(int(p.rank), obs.TrackNotify, obs.CatNotify, "notify:wait",
			start, now, int64(id))
		p.rec.Latency("gaspi.notify_wait", now-start)
	}
	return id, ok
}

// notifyWaitSome is NotifyWaitSome without the trace span.
func (p *Proc) notifyWaitSome(seg SegmentID, begin NotificationID, num int,
	timeout time.Duration) (NotificationID, bool) {
	deadline := time.Duration(-1)
	if timeout > 0 {
		deadline = p.clk.Now() + timeout
	}
	for {
		p.mu.Lock()
		st, ok := p.segs[seg]
		if !ok {
			p.mu.Unlock()
			panic(fmt.Sprintf("gaspisim: NotifyWaitSome on unknown segment %d", seg))
		}
		for id := begin; id < begin+NotificationID(num); id++ {
			if _, set := st.notifs[id]; set {
				p.mu.Unlock()
				return id, true
			}
		}
		if timeout == Test {
			p.mu.Unlock()
			return 0, false
		}
		w := &notifWaiter{begin: begin, num: NotificationID(num), p: p.clk.Parker()}
		w.p.SetName(p.notifyName)
		st.waiters = append(st.waiters, w)
		p.mu.Unlock()
		if deadline < 0 {
			w.p.Park()
			continue
		}
		left := deadline - p.clk.Now()
		if left <= 0 || !w.p.ParkTimeout(left) {
			// Timed out: withdraw the waiter (it may have fired anyway;
			// the loop re-checks the slots either way).
			p.mu.Lock()
			for i, x := range st.waiters {
				if x == w {
					st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
					break
				}
			}
			timedOut := !w.fired
			p.mu.Unlock()
			if timedOut {
				// One final re-check to avoid a lost-wake race.
				if id, ok := p.NotifyWaitSome(seg, begin, num, Test); ok {
					return id, true
				}
				return 0, false
			}
		}
	}
}

// RequestWait returns up to max locally-completed low-level requests of a
// queue — the gaspi_request_wait extension of §IV-C. With timeout Test it
// returns immediately (possibly empty); with Block it waits for at least
// one; a positive timeout bounds the wait. The caller is charged a fixed
// polling cost. An out-of-range queue id panics with GASPI_ERR_INV_QUEUE
// semantics.
func (p *Proc) RequestWait(queueID, max int, timeout time.Duration) []CompletedRequest {
	q := p.queueAt(queueID)
	p.clk.Sleep(p.RequestTestCost())
	for {
		q.mu.Lock()
		if len(q.completed) > 0 {
			out := q.takeLocked(max, nil)
			q.mu.Unlock()
			return out
		}
		if timeout == Test {
			q.mu.Unlock()
			return nil
		}
		pk := p.clk.Parker()
		pk.SetName(p.reqwaitName)
		q.waiters = append(q.waiters, pk)
		q.mu.Unlock()
		if timeout == Block {
			pk.Park()
			continue
		}
		if !pk.ParkTimeout(timeout) {
			q.mu.Lock()
			for i, x := range q.waiters {
				if x == pk {
					q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
					break
				}
			}
			q.mu.Unlock()
			timeout = Test // final pass drains anything that raced in
		}
	}
}

// RequestTestCost is the modelled CPU cost of draining a queue's completion
// list once, which RequestWait charges its caller and a RequestTest caller
// charges itself.
func (p *Proc) RequestTestCost() time.Duration { return p.prof.RDMAOpOverhead / 2 }

// RequestTest is RequestWait with timeout Test for callers that must not
// block (TAGASPI's event-driven polling service): it appends up to max
// locally-completed requests to buf, which the caller owns, and charges no
// time — the caller lets RequestTestCost elapse first.
//
//tagalint:hotpath
func (p *Proc) RequestTest(queueID, max int, buf []CompletedRequest) []CompletedRequest {
	q := p.queueAt(queueID)
	if q.ncompleted.Load() == 0 {
		return buf // the idle pass: nothing completed since the last drain
	}
	q.mu.Lock()
	buf = q.takeLocked(max, buf)
	q.mu.Unlock()
	return buf
}

// QueuesIdle reports that no queue of the process has a request in flight
// or a completed request not yet taken by RequestWait or RequestTest.
func (p *Proc) QueuesIdle() bool {
	for _, q := range p.queues {
		q.mu.Lock()
		busy := q.outstanding > 0 || len(q.completed) > 0
		q.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// takeLocked moves up to max completed requests to buf. A fully drained
// list keeps its backing array for the completions to come. Callers hold
// q.mu.
//
//tagalint:hotpath
func (q *queue) takeLocked(max int, buf []CompletedRequest) []CompletedRequest {
	n := len(q.completed)
	if n > max {
		n = max
	}
	buf = append(buf, q.completed[:n]...)
	q.ncompleted.Add(int32(-n))
	if n == len(q.completed) {
		clear(q.completed)
		q.completed = q.completed[:0]
	} else {
		q.completed = q.completed[n:]
	}
	return buf
}

// Wait blocks until all operations posted to the queue have locally
// completed — the standard coarse-grained gaspi_wait, which TAGASPI
// obsoletes but the non-task-aware baselines use. An out-of-range queue
// id panics with GASPI_ERR_INV_QUEUE semantics.
func (p *Proc) Wait(queueID int) {
	q := p.queueAt(queueID)
	for {
		q.mu.Lock()
		if q.outstanding == 0 {
			q.mu.Unlock()
			return
		}
		pk := p.clk.Parker()
		pk.SetName(p.waitName)
		q.waiters = append(q.waiters, pk)
		q.mu.Unlock()
		pk.Park()
	}
}

// Drain discards completed low-level requests accumulated on a queue; no
// gaspi_* counterpart (callers that use Wait instead of RequestWait must
// drain or the list grows unboundedly). An out-of-range queue id panics
// with GASPI_ERR_INV_QUEUE semantics.
func (p *Proc) Drain(queueID int) {
	q := p.queueAt(queueID)
	q.mu.Lock()
	q.completed = nil
	q.ncompleted.Store(0)
	q.mu.Unlock()
}

// Snapshot returns the per-queue post-resource statistics plus the failed
// operation total ("gaspi_queue_errors") in the common observability
// shape.
func (p *Proc) Snapshot() obs.Snapshot {
	s := obs.Snapshot{Component: "gaspi", Rank: int(p.rank),
		Samples: make([]obs.Sample, 0, 3*len(p.queues)+1)}
	var errs int64
	for i, q := range p.queues {
		st := q.res.Stats()
		q.mu.Lock()
		errs += q.errors
		q.mu.Unlock()
		names := &p.world.queueNames[i]
		s.Samples = append(s.Samples,
			obs.Sample{Name: names[0], Value: float64(st.Uses)},
			obs.Sample{Name: names[1], Value: st.Busy.Seconds(), Unit: "s"},
			obs.Sample{Name: names[2], Value: st.Waited.Seconds(), Unit: "s"},
		)
	}
	s.Samples = append(s.Samples, obs.Sample{Name: "gaspi_queue_errors", Value: float64(errs)})
	return s
}
