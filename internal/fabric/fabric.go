// Package fabric simulates the cluster interconnect: the wire, the NICs,
// and their occupancy. It carries the messages of both communication models
// (two-sided MPI in package mpisim, one-sided GASPI in package gaspisim)
// between simulated ranks, charging modelled time for injection, flight and
// reception, and preserving the ordering guarantees the protocols rely on:
//
//   - MPI: messages between a (source, destination) pair are non-overtaking.
//   - GASPI: operations posted to the same queue towards the same target
//     arrive in posting order (GASPI spec §"queues").
//
// Both guarantees are provided per ordering domain — a (source,
// destination, class, lane) tuple. The fabric runs no goroutine: every
// step of a domain's injection and delivery state machines is a callback
// event on the virtual clock's own (deadline, seq) queue, run by whichever
// goroutine is advancing the clock, so host goroutines do not grow with
// the O(ranks²) domain count and each domain's messages still inject and
// deliver strictly in arrival order. See ARCHITECTURE.md "Fabric on the
// clock queue".
//
// The two Profiles mirror the paper's evaluation systems: Marenostrum4
// (Intel Omni-Path, where the PSM2-optimised two-sided path is fast and
// ibverbs is emulated, penalising RDMA) and CTE-AMD (Mellanox InfiniBand,
// where RDMA is native and the two-sided stack is slower and noisier).
// Figure 13's crossover between the two machines follows from exactly this
// difference.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// Rank identifies a simulated process.
type Rank int

// Class separates the protocol stacks multiplexed over one fabric.
type Class uint8

// Protocol classes.
const (
	ClassMPI   Class = iota // two-sided traffic (and MPI RMA)
	ClassGASPI              // one-sided GASPI traffic
)

// Topology maps ranks onto nodes and, for shaped topologies (topo.go),
// nodes onto a link graph with deterministic multi-hop routes.
type Topology struct {
	nodes        int
	ranksPerNode int

	// Shaped-topology state (nil/zero for flat): the shape tag, the
	// canonical directed-link table and the precomputed per-(src,dst) node
	// routes as link indices.
	shape  Shape
	links  []topoLink
	routes [][]uint16
}

// NewTopology builds a flat block topology: rank r lives on node
// r/ranksPerNode and every inter-node pair is a single hop.
func NewTopology(nodes, ranksPerNode int) Topology {
	if nodes <= 0 || ranksPerNode <= 0 {
		panic(fmt.Sprintf("fabric: invalid topology %d nodes x %d ranks", nodes, ranksPerNode))
	}
	return Topology{nodes: nodes, ranksPerNode: ranksPerNode}
}

// Nodes returns the node count.
func (t Topology) Nodes() int { return t.nodes }

// Ranks returns the total rank count.
func (t Topology) Ranks() int { return t.nodes * t.ranksPerNode }

// RanksPerNode returns the ranks placed on each node.
func (t Topology) RanksPerNode() int { return t.ranksPerNode }

// NodeOf returns the node hosting rank r.
func (t Topology) NodeOf(r Rank) int { return int(r) / t.ranksPerNode }

// SameNode reports whether two ranks share a node.
func (t Topology) SameNode(a, b Rank) bool { return t.NodeOf(a) == t.NodeOf(b) }

// Profile is the cost model of one machine: wire, NIC and software-stack
// parameters. Durations are modelled time; bandwidths are bytes/second.
type Profile struct {
	Name string

	// Wire and NIC.
	InterNodeLatency   time.Duration // one-way wire latency between nodes
	IntraNodeLatency   time.Duration // shared-memory "latency" within a node
	InterNodeBandwidth float64       // NIC link bandwidth
	IntraNodeBandwidth float64       // memcpy bandwidth between same-node ranks
	InjectOverhead     time.Duration // fixed per-message NIC injection cost

	// Two-sided (MPI) software stack.
	MPIOpOverhead  time.Duration // service time under the MPI library lock per call
	MPIMatchCost   time.Duration // extra service time per message matched/queued
	EagerThreshold int           // bytes; larger messages use rendezvous
	MPIJitter      float64       // relative jitter on MPI software costs (0..1)

	// One-sided (GASPI over ibverbs) software stack.
	RDMAOpOverhead time.Duration // per-operation post cost, charged per queue
	RDMAEmulated   bool          // ibverbs emulated over the native API
	RDMAEmulFactor float64       // cost multiplier on RDMA wire costs when emulated

	// Compute.
	CoreHz float64 // modelled scalar "element updates per second" per core
}

// ProfileOmniPath models Marenostrum4: Intel Omni-Path with Intel MPI over
// PSM2 (fast, contended two-sided path) and emulated ibverbs (RDMA penalty).
func ProfileOmniPath() Profile {
	return Profile{
		Name:               "marenostrum4-omnipath",
		InterNodeLatency:   1500 * time.Nanosecond,
		IntraNodeLatency:   300 * time.Nanosecond,
		InterNodeBandwidth: 12.0e9,
		IntraNodeBandwidth: 24.0e9,
		InjectOverhead:     250 * time.Nanosecond,
		MPIOpOverhead:      320 * time.Nanosecond,
		MPIMatchCost:       120 * time.Nanosecond,
		EagerThreshold:     16 << 10,
		MPIJitter:          0.08,
		RDMAOpOverhead:     260 * time.Nanosecond,
		RDMAEmulated:       true,
		RDMAEmulFactor:     1.1,
		CoreHz:             1.05e9,
	}
}

// ProfileInfiniBand models CTE-AMD: Mellanox InfiniBand HDR100 with native
// ibverbs (fast RDMA) and OpenMPI (slower, noisier two-sided path).
func ProfileInfiniBand() Profile {
	return Profile{
		Name:               "cte-amd-infiniband",
		InterNodeLatency:   1300 * time.Nanosecond,
		IntraNodeLatency:   250 * time.Nanosecond,
		InterNodeBandwidth: 11.0e9,
		IntraNodeBandwidth: 28.0e9,
		InjectOverhead:     280 * time.Nanosecond,
		MPIOpOverhead:      900 * time.Nanosecond,
		MPIMatchCost:       350 * time.Nanosecond,
		EagerThreshold:     16 << 10,
		MPIJitter:          0.35,
		RDMAOpOverhead:     180 * time.Nanosecond,
		RDMAEmulated:       false,
		RDMAEmulFactor:     1,
		CoreHz:             1.25e9,
	}
}

// ProfileIdeal zeroes all modelled costs. It is the profile for runs that
// show ordering and data rather than time (the examples).
func ProfileIdeal() Profile {
	return Profile{
		Name:               "ideal",
		InterNodeBandwidth: 1e18, // effectively infinite: no modelled wire time
		IntraNodeBandwidth: 1e18,
		EagerThreshold:     16 << 10,
		RDMAEmulFactor:     1,
		CoreHz:             1e9,
	}
}

// Zero reports whether the profile charges no modelled time (ideal mode).
func (p Profile) Zero() bool {
	return p.InterNodeLatency == 0 && p.IntraNodeLatency == 0 &&
		p.InjectOverhead == 0 && p.MPIOpOverhead == 0 && p.RDMAOpOverhead == 0
}

// Message is one fabric transfer. Protocol layers fill the routing fields
// and hooks; the fabric owns the timing — and, once the message is passed
// to Send, the struct itself: after the destination handler returns (or
// OnFailed runs for a surfaced fault) the fabric zeroes the Message and
// recycles it through an internal pool. Neither handlers nor hooks may
// retain the *Message past their return; anything with a longer life
// belongs in Payload. Allocate with NewMessage to draw from the pool.
type Message struct {
	Src, Dst Rank
	Class    Class
	Lane     int  // ordering lane within (Src,Dst,Class): the GASPI queue id
	Size     int  // payload bytes, for bandwidth costs
	Control  bool // control messages skip bandwidth terms (acks, RTS/CTS)
	released bool // set by releaseMessage, cleared by NewMessage (DESIGN.md §6)
	Payload  any  // protocol-layer descriptor

	// OnInjected, if non-nil, runs once the source NIC has finished
	// injecting the message: the moment of *local completion* (the source
	// buffer may be reused). Protocol layers snapshot the payload bytes
	// here. Like a Handler it runs as a clock callback and must not block.
	OnInjected func()

	// OnFailed, if non-nil, runs (as a clock callback, like OnInjected)
	// when the fault plane (SetFaultPlan) fails the message's injection:
	// the protocol layer surfaces the error, as GASPI does through queue
	// error states.
	// OnInjected does not run for a failed message and nothing is
	// delivered. Messages without the hook are instead retransmitted
	// transparently after RetransmitDelay, modelling a
	// reliable transport that hides faults by paying time (the MPI
	// contract).
	OnFailed func()

	// Flow is the causal-flow edge id stamped by Send when a recorder is
	// installed (zero otherwise): the trace binds the send-side 's' flow
	// event to the delivery-side 'f' event through it, and protocol layers
	// may carry it further (gaspisim hands it to the notification it
	// fulfils). Ids derive from the message's ordering domain and a
	// per-domain sequence number, so they are deterministic across reruns.
	Flow int64

	// enqueued is the Send timestamp, stamped only when a recorder is
	// installed; the injection start turns it into the queue-residency
	// latency sample.
	enqueued time.Duration

	// Flight state (see hopStep). The fields ride on the message because
	// several messages of one domain pipeline through a route concurrently
	// — per-domain state would serialize the route. Only callbacks touch
	// them; zeroed on release.
	hop      int           // next link index within the domain's route
	hopSer   time.Duration // per-link serialization occupancy
	hopLat   time.Duration // per-hop propagation latency
	hopRx    time.Duration // destination reception cost (0 intra-node)
	linkWait time.Duration // accumulated link-contention wait along the route
}

// msgPool recycles Message structs across every fabric in the process.
// A message is released exactly once, by the step that consumed it
// (delivery after the handler returns, injection after a surfaced fault),
// so no live reference can outlast the Put.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed Message drawn from the fabric's message
// pool. Messages built with a plain composite literal still work — Send
// does not care where the struct came from — but they feed the pool on
// release, so steady-state traffic allocates no Message structs at all
// only when senders use NewMessage.
//
//tagalint:hotpath
func NewMessage() *Message {
	m := msgPool.Get().(*Message)
	m.released = false
	return m
}

// releaseMessage zeroes m (dropping payload and hook references), marks it
// released and returns it to the pool. A second release panics.
//
//tagalint:hotpath
func releaseMessage(m *Message) {
	if m.released {
		panic("fabric: releaseMessage of a released Message")
	}
	*m = Message{released: true}
	msgPool.Put(m)
}

// Handler consumes delivered messages on the destination rank. It runs as
// a clock callback, on whichever goroutine is advancing the clock, with
// virtual time held still: it must not block (no Sleep, Park, Resource.Use
// or channel wait — a blocked handler hangs the run with no deadlock
// report; tagalint's taskctx analyzer checks the functions handed to
// Register). It may wake parkers, post replies with Send and take short
// mutexes. The *Message argument is recycled when the handler returns and
// must not be retained.
type Handler func(*Message)

type pathKey struct {
	src, dst Rank
	class    Class
	lane     int
}

// dom is the state of one ordering domain while it carries traffic. Send
// shares only pend and injBusy (under mu) and sent (under the fabric's
// mu) with the callbacks; everything else belongs to the domain's
// injection chain or its delivery stage, each of which has one step in
// flight at a time — started by the Send that found the domain idle,
// carried on by clock callbacks, which the clock runs one at a time.
//
// A record lives only while its key has traffic: once every message Send
// accepted on it has retired and both chains are idle, releaseIdle files
// it on the fabric's free list and the next new key reuses it (addDom).
// An idle domain holds no modelled state — its pend and flights are empty
// and delFree is at or before the current instant — so a key that sends
// again behaves exactly as it would on a record kept since its last
// message.
type dom struct {
	key   pathKey
	fault *pathFaults // nil: the fault plane cannot touch this domain

	// route is the domain's multi-hop link route (topo.routeOf), nil for
	// flat topologies and intra-node traffic. It is a function of the key,
	// set by addDom: routing is deterministic, so per-link statistics are a
	// pure function of the workload.
	route []uint16

	// sent counts the messages Send accepted on the domain (under the
	// fabric's mu); retired counts those delivered or surfaced as failed
	// (callbacks only). The domain is released only when they are equal.
	sent    uint64
	retired uint64
	next    *dom // free-list link, under the fabric's mu

	// Flow-id assignment for causal tracing: ids are flowBase (an FNV-1a
	// hash of the ordering-domain key, spreading domains across the id
	// space) plus a per-domain sequence number. Sends on one domain are
	// serialized by the virtual clock (see DESIGN.md §10), so the sequence
	// assignment — and with it every flow id — is deterministic across
	// reruns; the atomic is for race-detector soundness, not ordering.
	flowBase uint64
	flowSeq  atomic.Uint64

	// mu guards pend and injBusy: a sender woken by an OnInjected hook may
	// Send on this domain while the callback that woke it is still in
	// injNext. pend holds the messages queued behind the injection in
	// progress, in arrival order; injBusy gates the chain so at most one
	// injection per domain is in flight — the FIFO guarantee. An idle
	// domain's pend is empty.
	mu      sync.Mutex
	pend    fifo[*Message]
	injBusy bool

	// Injection chain: injEv carries its next step (injKind); cur is the
	// head-of-line message whose injection is in progress, with its
	// precomputed costs.
	injEv   vclock.Event
	injKind uint8
	cur     *Message
	popTs   time.Duration // injection start
	inject  time.Duration // source-side port occupancy
	intra   bool
	attempt int

	// Delivery stage, pipelined behind injection: delEv carries its next
	// step (delKind) and flights queue behind the one delivery in progress.
	delEv   vclock.Event
	delKind uint8
	flights fifo[flight]
	delBusy bool
	curFl   flight
	delFree time.Duration // completion time of the last delivery
	h       Handler       // destination handler, cached (addDom, or the first delivery)
}

// flight is a message past local completion with its computed arrival
// time; its reception cost rides on the message (hopRx).
type flight struct {
	m       *Message
	arrival time.Duration
}

// fifo is an allocation-reusing FIFO: pops advance a head index instead of
// reslicing, the buffer is reset (capacity kept) when it empties, and a
// full buffer whose popped prefix is at least half of it is compacted in
// place before it grows, so a steady-state domain queues with no
// per-message garbage even under a backlog that never empties.
type fifo[T any] struct {
	buf  []T
	head int
}

//tagalint:hotpath
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	//lint:ignore hotalloc the buffer grows to the domain's backlog high-water mark and is then compacted in place (the dynamic CourierAllocBudget gate holds at 0/message)
	q.buf = append(q.buf, v)
}

//tagalint:hotpath
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// Step kinds: what a domain does when a scheduled instant arrives. The
// injection chain's steps come first; at picks the event by that.
const (
	evInjDone  = iota // source port charged: local completion, hand to delivery
	evInjFault        // fault-plane drop charged: surface or schedule retry
	evInjRetry        // retransmit backoff elapsed: next injection attempt
	evDelStart        // flight arrived and the domain's delivery turn came
	evDelDone         // destination port charged: invoke the handler
)

// Stats aggregates fabric traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
	ByClass  [2]int64
	// Faults counts fault-plane injection failures (each transparent
	// retransmission attempt and each surfaced failure is one fault).
	Faults int64
}

// Fabric connects the ranks of one simulated cluster.
type Fabric struct {
	clk  *vclock.VirtualClock
	topo Topology
	prof Profile

	nicTx   []*vsync.Resource // per-NODE inter-node injection port
	nicRx   []*vsync.Resource // per-NODE inter-node reception port
	shm     []*vsync.Resource // per-rank intra-node copy engine
	links   []linkState       // per directed link of a shaped topology (nil: flat)
	rec     *obs.Collector    // nil: uninstrumented
	mu      sync.Mutex
	doms    map[pathKey]*dom    // domains carrying traffic
	domFree *dom                // released domain records (releaseIdle)
	hands   map[Class][]Handler // per class, indexed by rank

	// Teardown (Close): closing opens the drain window — new Sends from
	// delivery handlers are still accepted so in-flight protocol chains
	// (rendezvous CTS/DATA, read responses) can complete; closed marks the
	// fabric fully drained, after which Send panics. inflight counts
	// messages accepted by Send and not yet retired (handler returned or
	// failure surfaced); Close waits for it to reach zero.
	closing   bool
	closed    bool
	inflight  atomic.Int64
	closeWait *vclock.Parker

	// Fault plane (SetFaultPlan); plan and seed are set before traffic.
	plan      FaultPlan
	planOn    bool
	faultSeed int64

	msgs    atomic.Int64
	bytes   atomic.Int64
	byClass [2]atomic.Int64
	faults  atomic.Int64
}

// New builds a fabric for the given topology and cost profile.
func New(clk *vclock.VirtualClock, topo Topology, prof Profile) *Fabric {
	n := topo.Ranks()
	f := &Fabric{
		clk:   clk,
		topo:  topo,
		prof:  prof,
		doms:  make(map[pathKey]*dom),
		hands: make(map[Class][]Handler),
	}
	f.nicTx = make([]*vsync.Resource, topo.Nodes())
	f.nicRx = make([]*vsync.Resource, topo.Nodes())
	for i := range f.nicTx {
		f.nicTx[i] = vsync.NewResource(clk)
		f.nicRx[i] = vsync.NewResource(clk)
	}
	f.shm = make([]*vsync.Resource, n)
	for i := range f.shm {
		f.shm[i] = vsync.NewResource(clk)
	}
	if ln := len(topo.links); ln > 0 {
		f.links = make([]linkState, ln)
		next := func(h linkHop) { f.hopStep(h.d, h.m, clk.Now()) }
		for i, l := range topo.links {
			ls := &f.links[i]
			ls.from, ls.to = l.from, l.to
			vclock.InitStream(clk, &ls.out, next)
		}
	}
	return f
}

// linkState is the runtime state of one directed link of a shaped
// topology: its serialization capacity (arrival-order serial service, the
// arithmetic of a NIC port), the bytes that crossed it, and the stream of
// messages that left it and are propagating to the next link of their
// route. Only clock callbacks touch a link, and the clock runs them one at
// a time, so none of it is locked or atomic; LinkSnapshots reads it after
// the job.
type linkState struct {
	from, to int
	srv      vsync.Server
	bytes    int64
	out      vclock.Stream[linkHop]
}

// linkHop is one routed message in flight between two links.
type linkHop struct {
	d *dom
	m *Message
}

// Topology returns the fabric's topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Profile returns the fabric's cost profile.
func (f *Fabric) Profile() Profile { return f.prof }

// Clock returns the fabric's time source.
func (f *Fabric) Clock() *vclock.VirtualClock { return f.clk }

// SetRecorder installs the observability recorder. It must be called
// before any traffic flows; a nil recorder (the default) keeps the fabric
// uninstrumented.
func (f *Fabric) SetRecorder(rec *obs.Collector) { f.rec = rec }

// Register installs the delivery handler for one rank and class.
// It must be called before any message of that class reaches the rank.
func (f *Fabric) Register(r Rank, class Class, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hs := f.hands[class]
	if hs == nil {
		hs = make([]Handler, f.topo.Ranks())
		f.hands[class] = hs
	}
	hs[r] = h
}

// Send submits a message. It never blocks and never runs a handler or a
// hook: it queues the message on its ordering domain and, when the domain
// is idle, books the source port and arms the domain's injection event —
// always armed, even when due at once (a zero-cost profile), so every
// later step runs as a clock callback, never on the sender's stack.
// Posting-side software costs (the MPI library lock, the GASPI queue post)
// are charged by the protocol layers before calling Send. Send takes
// ownership of m: the fabric recycles the struct after delivery, so the
// caller must not touch it again.
//
// The fabric has no goroutine of its own, so it cannot be pumped from
// outside the simulation: callback events fire only while some registered
// goroutine is parked on the clock waiting (vclock's abandoned-clock
// rule). A caller that Sends and then waits for the delivery must be
// registered and wait on a Parker or Sleep, not on a host channel.
//
//tagalint:hotpath
func (f *Fabric) Send(m *Message) {
	if m.released {
		panic("fabric: Send of a released Message")
	}
	if m.Src < 0 || int(m.Src) >= f.topo.Ranks() || m.Dst < 0 || int(m.Dst) >= f.topo.Ranks() {
		panic(fmt.Sprintf("fabric: message between invalid ranks %d -> %d", m.Src, m.Dst))
	}
	f.msgs.Add(1)
	f.bytes.Add(int64(m.Size))
	f.byClass[m.Class].Add(1)
	if f.rec != nil {
		m.enqueued = f.clk.Now()
	}
	key := pathKey{src: m.Src, dst: m.Dst, class: m.Class, lane: m.Lane}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		panic("fabric: Send after Close")
	}
	d, ok := f.doms[key]
	if !ok {
		d = f.addDom(key)
	}
	// The accept is recorded while f.mu is held, so Close — which flips
	// closing under the same lock before waiting — either sees this
	// message in flight or happened entirely before it, and releaseIdle
	// either sees it counted on d or ran before the lookup.
	d.sent++
	f.inflight.Add(1)
	f.mu.Unlock()
	if f.rec != nil {
		m.Flow = d.nextFlowID()
		f.rec.Flow(int(m.Src), obs.TrackFabricTx, obs.CatFabric, "flow:msg", 's', m.enqueued, m.Flow)
	}
	d.mu.Lock()
	idle := !d.injBusy
	if idle {
		d.injBusy = true
	} else {
		d.pend.push(m)
	}
	d.mu.Unlock()
	if idle {
		now := f.clk.Now()
		done, kind := f.startInject(d, m, now)
		d.injKind = kind
		d.injEv.After(done - now)
	}
}

// nextFlowID assigns the next causal-flow edge id of one ordering domain.
// Ids are positive and never zero (zero marks an unstamped message).
//
//tagalint:hotpath
func (d *dom) nextFlowID() int64 {
	id := int64((d.flowBase + d.flowSeq.Add(1)) &^ (1 << 63))
	if id == 0 {
		id = 1
	}
	return id
}

// addDom opens the ordering domain of a key with no domain carrying
// traffic. It runs with f.mu held, whenever a key sends after being idle:
// it takes a released record from the free list — its two clock events
// are held by value and unarmed, its FIFOs keep their capacity — or
// allocates one while the free list is still growing to the job's
// high-water mark of concurrently busy domains. Every field that derives
// from the key is recomputed, the destination handler included — looked
// up here under the lock Send already holds, so a reused record's first
// delivery does not take it again.
func (f *Fabric) addDom(key pathKey) *dom {
	d := f.domFree
	if d != nil {
		f.domFree, d.next = d.next, nil
	} else {
		d = new(dom)
		f.clk.InitEvent(&d.injEv, func() { f.step(d, d.injKind, f.clk.Now()) })
		f.clk.InitEvent(&d.delEv, func() { f.step(d, d.delKind, f.clk.Now()) })
	}
	d.key = key
	d.route = f.topo.routeOf(f.topo.NodeOf(key.src), f.topo.NodeOf(key.dst))
	d.flowBase = flowBaseOf(key)
	d.fault = f.faultsFor(key)
	d.delFree = 0
	d.h = f.handlerOf(key.class, key.dst)
	f.doms[key] = d
	return d
}

// handlerOf returns rank r's handler for class, nil while none is
// registered. It runs with f.mu held.
func (f *Fabric) handlerOf(class Class, r Rank) Handler {
	if hs := f.hands[class]; hs != nil {
		return hs[r]
	}
	return nil
}

// releaseIdle returns d to the free list if it carries no traffic: every
// message Send accepted on it has retired and neither its injection chain
// nor its delivery stage is busy. It runs at the two idle transitions
// (injNext with nothing pending, delDone with no flight queued), from a
// callback, and d must not be touched after it returns. Two kinds of
// domain hold state that belongs to the key and are never released: a
// fault-plane stream, whose draw counter is per domain (DESIGN.md §9), and
// any domain while a recorder is installed, since flow ids are flowBase
// plus a per-domain sequence.
//
// The check runs under f.mu, where Send counts each message on its
// domain: a Send that counted before the check keeps the domain, and one
// that looks the key up after it opens a fresh record. sent == retired
// also means every counted Send has finished its injBusy section, so
// injBusy is read here without d.mu.
//
//tagalint:hotpath
func (f *Fabric) releaseIdle(d *dom) {
	if d.fault != nil || f.rec != nil {
		return
	}
	f.mu.Lock()
	if d.sent == d.retired && !d.injBusy && !d.delBusy {
		delete(f.doms, d.key)
		d.next, f.domFree = f.domFree, d
	}
	f.mu.Unlock()
}

// retire marks one accepted message fully processed (delivered or its
// failure surfaced) and wakes a Close waiting for the fabric to drain.
//
//tagalint:hotpath
func (f *Fabric) retire() {
	if f.inflight.Add(-1) != 0 {
		return
	}
	f.mu.Lock()
	p := f.closeWait
	f.closeWait = nil
	f.mu.Unlock()
	if p != nil {
		p.Unpark()
	}
}

// flowBaseOf hashes an ordering-domain key into the 64-bit flow-id space
// (FNV-1a over the key fields), so the per-domain id sequences of different
// domains start far apart and practically never collide. The base depends
// only on the key — not on path-creation order — keeping flow ids
// deterministic across reruns.
func flowBaseOf(key pathKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [4]uint64{uint64(key.src), uint64(key.dst), uint64(key.class), uint64(key.lane)} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// at runs a domain step at virtual instant when, from inside a callback:
// armed on the domain's event for that stage when the instant lies in the
// future, dispatched inline when it is already due — zero-delay steps draw
// no timer sequence, so the surrounding cascade keeps its shape.
//
//tagalint:hotpath
func (f *Fabric) at(d *dom, when time.Duration, kind uint8) {
	now := f.clk.Now()
	if when <= now {
		f.step(d, kind, when)
	} else if kind < evDelStart {
		d.injKind = kind
		d.injEv.After(when - now)
	} else {
		d.delKind = kind
		d.delEv.After(when - now)
	}
}

// step dispatches one domain step at its scheduled instant.
//
//tagalint:hotpath
func (f *Fabric) step(d *dom, kind uint8, now time.Duration) {
	switch kind {
	case evInjDone:
		f.injDone(d, now)
	case evInjFault:
		f.injFault(d, now)
	case evInjRetry:
		d.attempt++
		done, next := f.injectAttempt(d)
		f.at(d, done, next)
	case evDelStart:
		done := now
		if m := d.curFl.m; m.hopRx > 0 {
			_, done = f.nicRx[f.topo.NodeOf(m.Dst)].Reserve(m.hopRx)
		}
		f.at(d, done, evDelDone)
	case evDelDone:
		f.delDone(d, now)
	}
}

// startInject begins the injection of m, the domain's next message, at
// virtual instant now — the send instant for an idle domain, the previous
// injection's completion for a backlogged one: it computes the message's
// wire costs and runs the first injection attempt, whose completion step
// it returns for the caller to arm (Send) or run when due (at).
//
//tagalint:hotpath
func (f *Fabric) startInject(d *dom, m *Message, now time.Duration) (done time.Duration, kind uint8) {
	d.cur = m
	d.popTs = now
	if f.rec != nil {
		f.rec.Latency("fabric.queue_residency", now-m.enqueued)
	}
	intra := f.topo.SameNode(m.Src, m.Dst)
	var lat time.Duration
	var bw float64
	if intra {
		lat, bw = f.prof.IntraNodeLatency, f.prof.IntraNodeBandwidth
	} else {
		lat, bw = f.prof.InterNodeLatency, f.prof.InterNodeBandwidth
	}
	if m.Class == ClassGASPI && f.prof.RDMAEmulated {
		lat = time.Duration(float64(lat) * f.prof.RDMAEmulFactor)
		bw /= f.prof.RDMAEmulFactor
	}
	var wire time.Duration
	if !m.Control && m.Size > 0 {
		wire = time.Duration(float64(m.Size) / bw * float64(time.Second))
	}

	// Injection: occupy the source-side port (NIC or intra-node
	// copy engine) for the overhead plus the serialization time.
	inject := f.prof.InjectOverhead + wire
	if m.Control {
		// Header-only packets (acks, notifications, RTS/CTS) occupy
		// the port for a fraction of a full-message injection.
		inject = f.prof.InjectOverhead / 4
	}
	d.intra = intra
	d.inject = inject
	// The flight's costs: routed domains traverse their link route hop by
	// hop after local completion, where each link serializes the message
	// (full wire time for data, a header slot for control packets) and adds
	// one hop of propagation latency, so a multi-hop path is strictly slower
	// than the flat single hop and shared links contend. An empty route
	// (flat fabric, intra-node) is that single hop of latency.
	m.hopLat = lat
	m.hopSer = wire
	if m.Control {
		m.hopSer = f.prof.InjectOverhead / 4
	}
	m.hopRx = wire
	if intra {
		m.hopRx = 0 // intra-node copies are charged once, at injection
	}
	d.attempt = 0
	return f.injectAttempt(d)
}

// injectAttempt runs one injection attempt of the domain's current
// message: the fault-plane drop decision (rolled before the port is
// charged), then the source-side port booking. It returns the step that
// carries the injection forward and the instant the port is done.
//
//tagalint:hotpath
func (f *Fabric) injectAttempt(d *dom) (done time.Duration, kind uint8) {
	m := d.cur
	if pf := d.fault; pf != nil && pf.roll() < pf.drop {
		// Each failed attempt charges the full injection cost — the port
		// did the work before the loss was detected.
		f.faults.Add(1)
		_, done = f.nicTx[f.topo.NodeOf(m.Src)].Reserve(d.inject)
		return done, evInjFault
	}
	if d.intra {
		_, done = f.shm[m.Src].Reserve(d.inject)
	} else {
		_, done = f.nicTx[f.topo.NodeOf(m.Src)].Reserve(d.inject)
	}
	return done, evInjDone
}

// injFault runs when a failed attempt's port charge completes. A failure
// of a message with an OnFailed hook is surfaced (hook runs, message
// consumed); without the hook the domain backs off RetransmitDelay and
// retries until an attempt succeeds, modelling a reliable transport that
// hides faults by paying time (the MPI contract).
//
//tagalint:hotpath
func (f *Fabric) injFault(d *dom, now time.Duration) {
	m := d.cur
	if f.rec != nil {
		f.rec.Count("fabric_faults_injected", 1)
		f.rec.Instant(int(m.Src), obs.TrackFabricTx, obs.CatFabric,
			"fabric:fault", now, int64(m.Size))
	}
	if m.OnFailed != nil {
		// Failure handed to the protocol layer; nothing flies and the
		// consumed message goes back to the pool.
		m.OnFailed()
		d.cur = nil
		releaseMessage(m)
		d.retired++
		f.retire()
		f.injNext(d, now)
		return
	}
	if d.attempt >= maxTransparentRetries {
		panic("fabric: transparent retransmission did not converge (drop rate 1 on a class with no OnFailed hook?)")
	}
	f.at(d, now+RetransmitDelay, evInjRetry)
}

// injDone runs at an injection's local-completion instant: the source
// buffer is reusable, the flight towards the destination starts, and the
// domain's next pending message (if any) begins injecting while this one
// flies.
//
//tagalint:hotpath
func (f *Fabric) injDone(d *dom, now time.Duration) {
	m := d.cur
	d.cur = nil
	if m.OnInjected != nil {
		m.OnInjected() // local completion: source buffer reusable
	}
	if f.rec != nil {
		f.rec.Span(int(m.Src), obs.TrackFabricTx, obs.CatFabric, "fabric:inject",
			d.popTs, now, int64(m.Size))
	}
	// The message leaves the NIC and enters its route now, with the zeroed
	// hop state of a fresh message; hopStep carries it to arrival.
	f.hopStep(d, m, now)
	f.injNext(d, now)
}

// hopStep advances a message by one link of its route: it books the link's
// serialization capacity in arrival order (waiting behind whatever other
// domains' traffic holds the link — this is where backpressure and
// hotspots emerge), charges one hop of propagation latency, and either
// pushes the message onto the link's stream towards its next hop (running
// that hop inline when it is already due) or hands the flight to the
// domain's delivery stage; a message with an empty route arrives one hop
// of latency after local completion. Per-domain FIFO holds: injections of
// one domain are serialized, link service is arrival-ordered and every hop
// adds identical per-message costs, so hop completions of one domain never
// reorder. Messages of different classes pay different hop latencies (RDMA
// emulation), so the streams do see out-of-order pushes.
//
//tagalint:hotpath
func (f *Fabric) hopStep(d *dom, m *Message, now time.Duration) {
	arrival := now + m.hopLat
	for m.hop < len(d.route) {
		l := &f.links[d.route[m.hop]]
		start, done := l.srv.Book(now, m.hopSer)
		if wait := start - now; wait > 0 {
			m.linkWait += wait
			if f.rec != nil {
				f.rec.Latency("fabric.link_wait", wait)
			}
		}
		l.bytes += int64(m.Size)
		arrival = done + m.hopLat
		m.hop++
		if m.hop < len(d.route) && arrival > now {
			l.out.Push(arrival-now, linkHop{d, m})
			return
		}
	}
	f.arrive(d, flight{m: m, arrival: arrival})
}

// arrive hands a completed flight to the domain's delivery stage: starts
// the delivery if the stage is idle, queues it behind the in-progress one
// otherwise. Flights of one domain arrive in injection order (flat: one
// in-flight computation; routed: hopStep's FIFO argument), so the queue
// preserves the non-overtaking guarantee.
//
//tagalint:hotpath
func (f *Fabric) arrive(d *dom, fl flight) {
	if d.delBusy {
		d.flights.push(fl)
		return
	}
	d.delBusy = true
	d.curFl = fl
	start := fl.arrival
	if d.delFree > start {
		start = d.delFree
	}
	f.at(d, start, evDelStart)
}

// injNext starts the domain's next pending injection, or idles the chain
// and, if the delivery stage is idle too, offers the domain for release.
// It is the one place a callback meets Send: an OnInjected or OnFailed hook
// may already have woken a sender that is posting to this domain.
//
//tagalint:hotpath
func (f *Fabric) injNext(d *dom, now time.Duration) {
	d.mu.Lock()
	if d.pend.len() == 0 {
		d.injBusy = false
		d.mu.Unlock()
		if !d.delBusy {
			f.releaseIdle(d)
		}
		return
	}
	m := d.pend.pop()
	d.mu.Unlock()
	done, next := f.startInject(d, m, now)
	f.at(d, done, next)
}

// delDone runs at a delivery's completion instant: the destination port
// charge is over and the rank's handler consumes the message. A record's
// (destination, class) does not change while it carries traffic, so its
// handler is cached: addDom looks it up, and only a rank that registers
// after the send that opened the record is looked up here, once.
// With no flight queued behind it the delivery stage idles and the domain
// is offered for release — unless its injection chain is still busy, as
// when a zero-cost delivery runs inline inside injDone.
//
//tagalint:hotpath
func (f *Fabric) delDone(d *dom, now time.Duration) {
	m := d.curFl.m
	d.curFl = flight{}
	if d.h == nil {
		f.mu.Lock()
		d.h = f.handlerOf(m.Class, m.Dst)
		f.mu.Unlock()
		if d.h == nil {
			panic(fmt.Sprintf("fabric: no handler for class %d on rank %d", m.Class, m.Dst))
		}
	}
	if f.rec != nil {
		if m.Flow != 0 {
			if m.linkWait > 0 {
				// Split the edge for blame attribution: the flow:msg edge
				// ends where uncontended transit would have delivered, and a
				// flow:link edge (critpath class link_contend) covers the
				// accumulated link-contention tail [now-linkWait, now]. The
				// contention actually accrued mid-route; pinning it to the
				// tail keeps the attributed magnitude exact without
				// per-hop trace events. Flat runs never take this branch,
				// so their traces stay byte-identical.
				ts := now - m.linkWait
				f.rec.Flow(int(m.Dst), obs.TrackFabricRx, obs.CatFabric, "flow:msg",
					'f', ts, m.Flow)
				id := d.nextFlowID()
				f.rec.Flow(int(m.Dst), obs.TrackFabricRx, obs.CatFabric, "flow:link",
					's', ts, id)
				f.rec.Flow(int(m.Dst), obs.TrackFabricRx, obs.CatFabric, "flow:link",
					'f', now, id)
			} else {
				f.rec.Flow(int(m.Dst), obs.TrackFabricRx, obs.CatFabric, "flow:msg",
					'f', now, m.Flow)
			}
		}
		f.rec.Instant(int(m.Dst), obs.TrackFabricRx, obs.CatFabric, "fabric:deliver",
			now, int64(m.Size))
	}
	d.h(m)
	releaseMessage(m)
	d.retired++
	f.retire()
	d.delFree = now
	if d.flights.len() > 0 {
		fl := d.flights.pop()
		d.curFl = fl
		start := fl.arrival
		if now > start {
			start = now
		}
		f.at(d, start, evDelStart)
		return
	}
	d.delBusy = false
	f.releaseIdle(d)
}

// Close shuts the fabric down once every accepted message has retired —
// deliveries still in flight complete, and their handlers may keep sending
// (a rendezvous reply, a read response) without panicking. The wait is a
// counted park on the clock: callback events alone do not advance an
// abandoned clock, so it is this park that lets the in-flight steps fire
// when every rank has already exited, and a message that can never retire
// ends in a deadlock report naming "fabric-close" instead of a hang. Close
// is idempotent and callable from unregistered goroutines; messages sent
// after it returns panic.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closing {
		// Idempotent re-entry: the first Close drains the fabric; a
		// concurrent re-entry during the drain window simply returns.
		f.mu.Unlock()
		return
	}
	f.closing = true
	var p *vclock.Parker
	if f.inflight.Load() > 0 {
		p = f.clk.Parker()
		p.SetName("fabric-close")
		f.closeWait = p
	}
	f.mu.Unlock()
	if p != nil {
		// Close usually runs on a host goroutine; Park decrements the
		// clock's active count, so it is registered for the wait.
		f.clk.Register()
		p.Park()
		f.clk.Unregister()
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// Stats returns a snapshot of traffic counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Messages: f.msgs.Load(),
		Bytes:    f.bytes.Load(),
		ByClass:  [2]int64{f.byClass[0].Load(), f.byClass[1].Load()},
		Faults:   f.faults.Load(),
	}
}

// NICSnapshot is the (tx, rx) port statistics of one node's NIC.
type NICSnapshot struct {
	Node   int
	Tx, Rx vsync.ResourceStats
}

// NICSnapshots returns the NIC port statistics of every node.
func (f *Fabric) NICSnapshots() []NICSnapshot {
	out := make([]NICSnapshot, f.topo.Nodes())
	for n := range out {
		out[n] = NICSnapshot{Node: n, Tx: f.nicTx[n].Stats(), Rx: f.nicRx[n].Stats()}
	}
	return out
}

// LinkStats is the traffic and occupancy statistics of one directed link
// of a shaped topology: its endpoints (route-vertex ids: nodes first, then
// any switches), the messages and bytes that crossed it, and its
// serialization-resource statistics — Waited is the total time messages
// queued at the link's entry, the emergent backpressure signal.
type LinkStats struct {
	From, To int
	Msgs     int64
	Bytes    int64
	Res      vsync.ResourceStats
}

// LinkSnapshots returns the per-link statistics of a shaped topology in
// canonical link order, or nil for a flat topology. Link state is written
// by clock callbacks without a lock, so call it after the job: once the
// traffic to report has been delivered, from a goroutine that has since
// been woken (or joined) through the clock, and with no callback running.
func (f *Fabric) LinkSnapshots() []LinkStats {
	if f.links == nil {
		return nil
	}
	out := make([]LinkStats, len(f.links))
	for i := range f.links {
		l := &f.links[i]
		res := l.srv.Stats()
		out[i] = LinkStats{From: l.from, To: l.to, Msgs: res.Uses, Bytes: l.bytes, Res: res}
	}
	return out
}

// Snapshot returns the fabric's statistics — traffic totals plus the
// per-node NIC port occupancy and, for shaped topologies, per-link
// occupancy — in the unified observability shape.
func (f *Fabric) Snapshot() obs.Snapshot {
	s := f.Stats()
	samples := []obs.Sample{
		{Name: "messages", Value: float64(s.Messages)},
		{Name: "bytes", Value: float64(s.Bytes), Unit: "B"},
		{Name: "mpi.messages", Value: float64(s.ByClass[ClassMPI])},
		{Name: "gaspi.messages", Value: float64(s.ByClass[ClassGASPI])},
		{Name: "fabric_faults_injected", Value: float64(s.Faults)},
	}
	for _, nic := range f.NICSnapshots() {
		p := fmt.Sprintf("node%d.", nic.Node)
		samples = append(samples,
			obs.Sample{Name: p + "nic.tx.uses", Value: float64(nic.Tx.Uses)},
			obs.Sample{Name: p + "nic.tx.busy", Value: nic.Tx.Busy.Seconds(), Unit: "s"},
			obs.Sample{Name: p + "nic.tx.waited", Value: nic.Tx.Waited.Seconds(), Unit: "s"},
			obs.Sample{Name: p + "nic.rx.uses", Value: float64(nic.Rx.Uses)},
			obs.Sample{Name: p + "nic.rx.busy", Value: nic.Rx.Busy.Seconds(), Unit: "s"},
			obs.Sample{Name: p + "nic.rx.waited", Value: nic.Rx.Waited.Seconds(), Unit: "s"},
		)
	}
	for _, ls := range f.LinkSnapshots() {
		p := fmt.Sprintf("link.%d-%d.", ls.From, ls.To)
		samples = append(samples,
			obs.Sample{Name: p + "msgs", Value: float64(ls.Msgs)},
			obs.Sample{Name: p + "bytes", Value: float64(ls.Bytes), Unit: "B"},
			obs.Sample{Name: p + "busy", Value: ls.Res.Busy.Seconds(), Unit: "s"},
			obs.Sample{Name: p + "waited", Value: ls.Res.Waited.Seconds(), Unit: "s"},
		)
	}
	return obs.Snapshot{Component: "fabric", Rank: -1, Samples: samples}
}

// SeedOf derives a deterministic, platform-independent seed from a
// sequence of identifier strings (FNV-1a over each part's bytes followed
// by its length, so part boundaries are significant). Experiment
// harnesses use it to seed every Jitterer chain from a stable point
// identity instead of sweep iteration order, so a run's modelled times do
// not depend on how many points preceded it or on host-side execution
// order. The result is always positive, so a zero Config seed can keep
// meaning "derive one for me".
func SeedOf(parts ...string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for j := 0; j < len(p); j++ {
			h ^= uint64(p[j])
			h *= prime64
		}
		for n := len(p); ; n >>= 8 {
			h ^= uint64(n & 0xff)
			h *= prime64
			if n < 0x100 {
				break
			}
		}
	}
	seed := int64(h &^ (1 << 63))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Jitterer produces deterministic multiplicative jitter for software-cost
// modelling. Each protocol-layer process owns one (no locking). Its draws
// are those of math/rand.New(math/rand.NewSource(seed)).Float64, from a
// source that is seeded lazily (lfg): a job creates one jitterer per rank
// and library, most of a large job's draw little or never, and none pays
// for math/rand's 607-word state up front.
type Jitterer struct {
	src lfg
	rel float64
}

// NewJitterer returns a jitterer with relative magnitude rel (0 disables),
// seeded deterministically. It builds no generator state: the source keeps
// only the outputs drawn so far, up to a 607-word history.
func NewJitterer(seed int64, rel float64) *Jitterer {
	return &Jitterer{src: newLFG(seed), rel: rel}
}

// Apply returns d scaled by a uniform factor in [1-rel, 1+rel].
func (j *Jitterer) Apply(d time.Duration) time.Duration {
	if j.rel <= 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + j.rel*(2*j.src.Float64()-1)))
}
