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
// destination, class, lane) tuple. Domains hash onto a bounded pool of
// courier shards; each shard's single courier goroutine drains the input
// queues of many domains and advances their injection/delivery state
// machines through a per-shard agenda (a (time, seq) min-heap of pending
// events), so the host goroutine count scales with the shard count, not
// with the O(ranks²) domain count, while each domain's messages still
// inject and deliver strictly in arrival order. See ARCHITECTURE.md
// "Sharded host substrate".
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
	"math/rand"
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
	// vertex count including switches, the canonical directed-link table
	// and the precomputed per-(src,dst) node routes as link indices.
	shape  Shape
	verts  int
	links  []topoLink
	routes [][]uint16
}

// NewTopology builds a flat block topology: rank r lives on node
// r/ranksPerNode and every inter-node pair is a single hop.
func NewTopology(nodes, ranksPerNode int) Topology {
	if nodes <= 0 || ranksPerNode <= 0 {
		panic(fmt.Sprintf("fabric: invalid topology %d nodes x %d ranks", nodes, ranksPerNode))
	}
	return Topology{nodes: nodes, ranksPerNode: ranksPerNode, verts: nodes}
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
//
//tagalint:pooled
type Message struct {
	Src, Dst Rank
	Class    Class
	Lane     int  // ordering lane within (Src,Dst,Class): the GASPI queue id
	Size     int  // payload bytes, for bandwidth costs
	Control  bool // control messages skip bandwidth terms (acks, RTS/CTS)
	Payload  any  // protocol-layer descriptor

	// OnInjected, if non-nil, runs on the courier once the source NIC has
	// finished injecting the message: the moment of *local completion*
	// (the source buffer may be reused). Protocol layers snapshot the
	// payload bytes here.
	OnInjected func()

	// OnFailed, if non-nil, runs on the courier when the fault plane
	// (SetFaultPlan) fails the message's injection: the protocol layer
	// surfaces the error, as GASPI does through queue error states.
	// OnInjected does not run for a failed message and nothing is
	// delivered. Messages without the hook are instead retransmitted
	// transparently after the plan's RetransmitDelay, modelling a
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
	// installed; the injection courier turns it into the queue-residency
	// latency sample.
	enqueued time.Duration

	// Multi-hop flight state (shaped topologies only; see hopStep). The
	// fields ride on the message because several messages of one domain
	// pipeline through the route concurrently — per-domain state would
	// serialize the route. All are courier-owned and zeroed on release.
	hop      int           // next link index within the domain's route
	hopSer   time.Duration // per-link serialization occupancy
	hopLat   time.Duration // per-link propagation latency
	hopRx    time.Duration // destination reception cost after the last hop
	hopSpike time.Duration // fault-plane jitter spike, applied at the last hop
	linkWait time.Duration // accumulated link-contention wait along the route
}

// msgPool recycles Message structs across every fabric in the process.
// A message is released exactly once, by the courier that consumed it
// (deliver after the handler returns, inject after a surfaced fault), so
// no live reference can outlast the Put.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed Message drawn from the fabric's message
// pool. Messages built with a plain composite literal still work — Send
// does not care where the struct came from — but they feed the pool on
// release, so steady-state traffic allocates no Message structs at all
// only when senders use NewMessage.
//
//tagalint:hotpath
func NewMessage() *Message { return msgPool.Get().(*Message) }

// releaseMessage zeroes m (dropping payload and hook references) and
// returns it to the pool.
//
//tagalint:pooled release
//tagalint:hotpath
func releaseMessage(m *Message) {
	*m = Message{}
	msgPool.Put(m)
}

// Handler consumes delivered messages on the destination rank.
// It runs on a courier goroutine and must not block on modelled time other
// than briefly (it may wake parkers, post replies, take short mutexes).
// The *Message argument is recycled when the handler returns and must not
// be retained.
type Handler func(*Message)

type pathKey struct {
	src, dst Rank
	class    Class
	lane     int
}

// dom is the state of one ordering domain. All fields except the flow
// sequence are owned by the domain's shard courier (single goroutine);
// creation happens under f.mu before any traffic reaches the shard.
type dom struct {
	key   pathKey
	shard *courierShard
	fault *pathFaults // nil: the fault plane cannot touch this domain

	// route is the domain's multi-hop link route (topo.routeOf), nil for
	// flat topologies and intra-node traffic. It never changes after
	// addDom: routing is deterministic, so per-link statistics are a pure
	// function of the workload.
	route []uint16

	// Flow-id assignment for causal tracing: ids are flowBase (an FNV-1a
	// hash of the ordering-domain key, spreading domains across the id
	// space) plus a per-domain sequence number. Sends on one domain are
	// serialized by the virtual clock (see DESIGN.md §10), so the sequence
	// assignment — and with it every flow id — is deterministic across
	// reruns; the atomic is for race-detector soundness, not ordering.
	flowBase uint64
	flowSeq  atomic.Uint64

	// Injection state machine: pend holds messages awaiting injection in
	// arrival order; cur is the head-of-line message whose injection is in
	// progress, with its precomputed costs. injBusy gates the chain so at
	// most one injection per domain is in flight — the FIFO guarantee.
	pend    msgFIFO
	injBusy bool
	cur     *Message
	popTs   time.Duration // injection start (the old courier's PopAll time)
	lat     time.Duration // one-way latency, including any jitter spike
	rx      time.Duration // destination reception cost (0 intra-node)
	inject  time.Duration // source-side port occupancy
	spike   time.Duration // jitter spike of the current routed injection
	intra   bool
	attempt int

	// Delivery state machine, pipelined behind injection exactly like the
	// old courier pair: flights queue behind the one in-flight delivery.
	flights flightFIFO
	delBusy bool
	curFl   flight
	delFree time.Duration // completion time of the last delivery
	h       Handler       // destination handler, cached on first delivery
}

// flight is a message past local completion with its computed arrival time
// and reception cost.
type flight struct {
	m       *Message
	arrival time.Duration
	rx      time.Duration
}

// msgFIFO is an allocation-reusing FIFO of messages: pops advance a head
// index instead of reslicing, and the buffer is reset (capacity kept) when
// it empties, so a steady-state domain queues with no per-message garbage.
type msgFIFO struct {
	buf  []*Message
	head int
}

//tagalint:hotpath
func (q *msgFIFO) push(m *Message) {
	//lint:ignore hotalloc the buffer resets to [:0] on empty and reuses capacity; growth stops at the domain's backlog high-water mark (the dynamic CourierAllocBudget gate holds at 0/message)
	q.buf = append(q.buf, m)
}

//tagalint:hotpath
func (q *msgFIFO) pop() *Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

func (q *msgFIFO) len() int { return len(q.buf) - q.head }

// flightFIFO is msgFIFO for flights.
type flightFIFO struct {
	buf  []flight
	head int
}

//tagalint:hotpath
func (q *flightFIFO) push(fl flight) {
	//lint:ignore hotalloc same amortisation as msgFIFO.push: capacity is kept across the [:0] reset, so steady state appends in place
	q.buf = append(q.buf, fl)
}

//tagalint:hotpath
func (q *flightFIFO) pop() flight {
	fl := q.buf[q.head]
	q.buf[q.head] = flight{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return fl
}

func (q *flightFIFO) len() int { return len(q.buf) - q.head }

// Agenda event kinds: what a shard courier does when a scheduled instant
// arrives.
const (
	evInjDone  = iota // source port charged: local completion, hand to delivery
	evInjFault        // fault-plane drop charged: surface or schedule retry
	evInjRetry        // retransmit backoff elapsed: next injection attempt
	evDelStart        // flight arrived and the domain's delivery turn came
	evDelDone         // destination port charged: invoke the handler
	evHop             // routed message reached the entry of its next link
)

// agEvent is one pending state-machine step of a domain, scheduled on its
// shard's agenda. evHop events additionally carry the in-route message:
// hops are per-message state, because several messages of one domain
// pipeline through the route concurrently; m is nil for every other kind.
type agEvent struct {
	when time.Duration
	seq  uint64 // creation order within the shard, breaks same-instant ties
	kind uint8
	d    *dom
	m    *Message
}

// agendaHeap is a (when, seq) min-heap of pending events. Same-instant
// events fire in creation order, a deterministic choice among orders the
// old courier-per-domain model left to the host scheduler.
type agendaHeap []agEvent

func (h agendaHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

//tagalint:hotpath
func (h *agendaHeap) push(ev agEvent) {
	//lint:ignore hotalloc pops zero the vacated slot and shrink in place, so the heap's backing array stabilises at the shard's in-flight high-water mark
	*h = append(*h, ev)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

//tagalint:hotpath
func (h *agendaHeap) pop() agEvent {
	a := *h
	n := len(a)
	ev := a[0]
	a[0] = a[n-1]
	a[n-1] = agEvent{}
	*h = a[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return ev
}

// inEntry is one queued Send: the message plus its resolved domain.
type inEntry struct {
	m *Message
	d *dom
}

// courierShard is one slice of the bounded courier pool: an input queue
// fed by Send and an agenda of scheduled domain events, drained by a
// single courier goroutine. Everything except the queue is owned by that
// goroutine.
type courierShard struct {
	in      *vsync.Queue[inEntry]
	clk     *vclock.VirtualClock
	agenda  agendaHeap
	started bool // courier goroutine spawned (guarded by f.mu)
}

// schedule books a future domain step on the shard agenda. The event's
// wake sequence is drawn from the clock's process-wide counter at this
// very call — the instant the goroutine-per-domain couriers armed their
// sleep timers — so same-deadline ties against rank-task timers resolve
// in the exact order the old model produced.
//
//tagalint:hotpath
func (s *courierShard) schedule(when time.Duration, kind uint8, d *dom, m *Message) {
	s.agenda.push(agEvent{when: when, seq: s.clk.AllocSeq(), kind: kind, d: d, m: m})
}

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

	nicTx  []*vsync.Resource // per-NODE inter-node injection port
	nicRx  []*vsync.Resource // per-NODE inter-node reception port
	shm    []*vsync.Resource // per-rank intra-node copy engine
	links  []*linkState      // per directed link of a shaped topology (nil: flat)
	rec    obs.Recorder      // nil: uninstrumented
	mu     sync.Mutex
	doms   map[pathKey]*dom
	shards []*courierShard
	hands  map[Class][]Handler // per class, indexed by rank
	wg     sync.WaitGroup

	// Teardown (Close): closing opens the drain window — new Sends from
	// delivery handlers are still accepted so in-flight protocol chains
	// (rendezvous CTS/DATA, read responses) can complete; closed marks the
	// fabric fully drained and torn down, after which Send panics.
	// inflight counts messages accepted by Send and not yet retired
	// (handler returned or failure surfaced); Close waits for it to reach
	// zero before closing the shard queues.
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

// courierShardsFor is the size of the courier pool: enough shards to
// spread the domains of a large cluster across host cores, never more
// than the hard bound. Power of two, so domain placement is a mask of the
// domain-key hash.
func courierShardsFor(topo Topology) int {
	n := 1
	for n < topo.Ranks() && n < maxCourierShards {
		n <<= 1
	}
	return n
}

// maxCourierShards bounds the courier pool. The pool exists to decouple
// goroutine count from the O(ranks²) domain count; past a few dozen
// couriers the host cores are saturated and more shards only add idle
// goroutines.
const maxCourierShards = 64

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
	f.shards = make([]*courierShard, courierShardsFor(topo))
	for i := range f.shards {
		f.shards[i] = &courierShard{in: vsync.NewQueue[inEntry](clk), clk: clk}
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
		f.links = make([]*linkState, ln)
		for i, l := range topo.links {
			f.links[i] = &linkState{from: l.from, to: l.to, res: vsync.NewResource(clk)}
		}
	}
	return f
}

// linkState is the runtime state of one directed link of a shaped
// topology: its serialization capacity (an arrival-order serially-served
// resource, exactly like a NIC port) plus traffic counters. Counters are
// atomics because the domains crossing one link may live on different
// courier shards.
type linkState struct {
	from, to int
	res      *vsync.Resource
	msgs     atomic.Int64
	bytes    atomic.Int64
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
func (f *Fabric) SetRecorder(rec obs.Recorder) { f.rec = rec }

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

// Send submits a message. It never blocks: the domain's shard courier
// picks the message up and charges the modelled transfer time. Posting-side
// software costs (the MPI library lock, the GASPI queue post) are charged
// by the protocol layers before calling Send. Send takes ownership of m:
// the fabric recycles the struct after delivery, so the caller must not
// touch it again.
//
//tagalint:pooled transfer
//tagalint:hotpath
func (f *Fabric) Send(m *Message) {
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
	// message in flight or happened entirely before it.
	f.inflight.Add(1)
	f.mu.Unlock()
	if f.rec != nil {
		m.Flow = d.nextFlowID()
		f.rec.Flow(int(m.Src), obs.TrackFabricTx, obs.CatFabric, "flow:msg", 's', m.enqueued, m.Flow)
	}
	d.shard.in.Push(inEntry{m: m, d: d})
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

// addDom creates an ordering domain and, if its shard's courier is not yet
// running, spawns it. It runs with f.mu held, once per (src, dst, class,
// lane) tuple over the fabric's lifetime: domain setup is the cold side of
// Send and may allocate.
func (f *Fabric) addDom(key pathKey) *dom {
	shard := f.shards[flowBaseOf(key)&uint64(len(f.shards)-1)]
	d := &dom{
		key:      key,
		shard:    shard,
		route:    f.topo.routeOf(f.topo.NodeOf(key.src), f.topo.NodeOf(key.dst)),
		flowBase: flowBaseOf(key),
	}
	d.fault = f.faultsFor(key, d.route)
	f.doms[key] = d
	if !shard.started {
		shard.started = true
		f.wg.Add(1)
		f.clk.Go(func() {
			defer f.wg.Done()
			f.courier(shard)
		})
	}
	return d
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

// courier is one shard's service loop: it drains the shard's input queue,
// starts the injection chain of idle domains, and fires the agenda events
// of all the shard's domains in (time, seq) order. Between events it
// parks on the input queue at the frontier agenda event's exact
// (deadline, seq) — the timer the old couriers would have been sleeping
// on — so new traffic wakes it immediately while the event keeps its
// place in the global same-deadline wake order across re-parks.
//
// Timing equivalence with the old courier-pair-per-domain model: every
// Resource booking and every hook runs at exactly the virtual instant the
// blocking couriers would have executed it — the agenda replaces sleeping
// with scheduling, not the cost arithmetic — and every agenda event's
// wake sequence is drawn at the code point where the old model armed the
// corresponding timer (ARCHITECTURE.md gives the step-by-step argument).
//
//tagalint:hotpath
func (f *Fabric) courier(s *courierShard) {
	var buf []inEntry
	for {
		var items []inEntry
		var ok bool
		if len(s.agenda) == 0 {
			items, ok = s.in.PopAll(buf)
		} else {
			ev := s.agenda[0]
			items, ok = s.in.PopAllUntil(buf, ev.when, ev.seq)
		}
		if !ok {
			f.drainAgenda(s)
			return
		}
		if len(items) > 0 {
			// Push wake: fresh injections are booked mid-cascade, exactly
			// when the old per-domain inject couriers booked theirs. A push
			// cannot land between our timer's expiry and the queue's locked
			// re-check — a timer wake means every other registered goroutine
			// was parked — so absorbing here never reorders past a due event.
			buf = f.absorb(items)
			continue
		}
		// Timer wake at the agenda frontier: the advance loop fired our
		// (deadline, seq) as the globally-earliest timer, the same
		// one-step-per-quiescence-window serialization the old couriers got
		// from their Sleep calls. Fire exactly one event, then re-park.
		f.fire(s.agenda.pop())
	}
}

// absorb pushes one drained batch of Sends into their domains and starts
// the injection chain of every idle domain at the current instant. It
// returns the spent batch for reuse as the queue's push buffer.
//
//tagalint:hotpath
func (f *Fabric) absorb(items []inEntry) []inEntry {
	now := f.clk.Now()
	for i, e := range items {
		e.d.pend.push(e.m)
		if !e.d.injBusy {
			e.d.injBusy = true
			f.startInject(e.d, now)
		}
		items[i] = inEntry{} // drop refs before the array becomes the push buffer
	}
	return items
}

// drainAgenda fires whatever the agenda still holds after the input queue
// closed. Close waits for every accepted message to retire before closing
// the queues, so the agenda is normally empty here; any residue is driven
// to completion on a private parker that only ever wakes by deadline.
func (f *Fabric) drainAgenda(s *courierShard) {
	var p *vclock.Parker
	for len(s.agenda) > 0 {
		ev := s.agenda[0]
		if ev.when > f.clk.Now() {
			if p == nil {
				p = f.clk.Parker()
				p.SetName("fabric-drain")
				p.SetExternal(true)
			}
			p.ParkUntil(ev.when, ev.seq)
			continue
		}
		f.fire(s.agenda.pop())
	}
}

// at runs a domain step at virtual instant when: scheduled on the shard
// agenda when the instant lies in the future, dispatched inline when it is
// already due — the zero-delay steps the old couriers ran without arming a
// timer (their sleeps were guarded `if d > 0`), so no wake sequence is
// drawn for them and the surrounding cascade keeps its old shape.
//
//tagalint:hotpath
func (f *Fabric) at(d *dom, when time.Duration, kind uint8) {
	if when > f.clk.Now() {
		d.shard.schedule(when, kind, d, nil)
		return
	}
	f.fire(agEvent{when: when, kind: kind, d: d})
}

// atHop is at for the per-message hop events of a routed domain: the
// message rides on the event because several messages pipeline through
// the route concurrently.
//
//tagalint:hotpath
func (f *Fabric) atHop(d *dom, m *Message, when time.Duration) {
	if when > f.clk.Now() {
		d.shard.schedule(when, evHop, d, m)
		return
	}
	f.fire(agEvent{when: when, kind: evHop, d: d, m: m})
}

// fire dispatches one agenda event at its scheduled instant.
//
//tagalint:hotpath
func (f *Fabric) fire(ev agEvent) {
	d := ev.d
	switch ev.kind {
	case evInjDone:
		f.injDone(d, ev.when)
	case evInjFault:
		f.injFault(d, ev.when)
	case evInjRetry:
		d.attempt++
		f.injectAttempt(d, ev.when)
	case evDelStart:
		done := ev.when
		if d.curFl.rx > 0 {
			_, done = f.nicRx[f.topo.NodeOf(d.curFl.m.Dst)].Reserve(d.curFl.rx)
		}
		f.at(d, done, evDelDone)
	case evDelDone:
		f.delDone(d, ev.when)
	case evHop:
		f.hopStep(d, ev.m, ev.when)
	}
}

// startInject begins the injection of the domain's next pending message at
// virtual instant now: it computes the message's wire costs and runs the
// first injection attempt. It is the event-driven form of the old inject
// courier's per-message loop head, so now plays the role the courier's
// PopAll wake-up time played — the send instant for an idle domain, the
// previous injection's completion for a backlogged one.
//
//tagalint:hotpath
func (f *Fabric) startInject(d *dom, now time.Duration) {
	m := d.pend.pop()
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
	d.lat = lat
	d.inject = inject
	d.rx = wire
	if intra {
		d.rx = 0 // intra-node copies are charged once, at injection
	}
	d.spike = 0
	if d.route != nil {
		// Routed domains traverse their link route hop by hop after local
		// completion: each link serializes the message (full wire time for
		// data, a header slot for control packets) and adds one hop of
		// propagation latency, so a multi-hop path is strictly slower than
		// the flat single hop and shared links contend.
		m.hopLat = lat
		m.hopSer = wire
		if m.Control {
			m.hopSer = f.prof.InjectOverhead / 4
		}
		m.hopRx = d.rx
	}
	d.attempt = 0
	f.injectAttempt(d, now)
}

// injectAttempt runs one injection attempt at virtual instant now: the
// fault-plane decisions (rolled at the attempt instant, before the port is
// charged, exactly like the old courier loop), then the source-side port
// booking. The completion event carries the injection forward.
//
//tagalint:hotpath
func (f *Fabric) injectAttempt(d *dom, now time.Duration) {
	m := d.cur
	if pf := d.fault; pf != nil {
		dropped := pf.outageAt(now)
		if !dropped && pf.drop > 0 {
			dropped = pf.roll(saltDrop) < pf.drop
		}
		if dropped {
			// Each failed attempt charges the full injection cost — the
			// port did the work before the loss was detected.
			f.faults.Add(1)
			_, done := f.nicTx[f.topo.NodeOf(m.Src)].Reserve(d.inject)
			f.at(d, done, evInjFault)
			return
		}
		if pf.jitter > 0 && pf.roll(saltJitter) < pf.jitter {
			if d.route != nil {
				// Routed flights apply the spike once, at the last hop —
				// adding it to the per-hop latency would multiply it by the
				// route length.
				d.spike += pf.spike
			} else {
				d.lat += pf.spike
			}
		}
	}
	var done time.Duration
	if d.intra {
		_, done = f.shm[m.Src].Reserve(d.inject)
	} else {
		_, done = f.nicTx[f.topo.NodeOf(m.Src)].Reserve(d.inject)
	}
	f.at(d, done, evInjDone)
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
	pf := d.fault
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
		f.retire()
		f.injNext(d, now)
		return
	}
	if d.attempt >= maxTransparentRetries {
		panic("fabric: transparent retransmission did not converge (Drop rate 1 on a class with no OnFailed hook?)")
	}
	f.at(d, now+pf.retrans, evInjRetry)
}

// injDone runs at an injection's local-completion instant: the source
// buffer is reusable, the flight towards the destination starts, and the
// domain's next pending message (if any) begins injecting — the pipelining
// the old courier pair provided by running inject and deliver on separate
// goroutines.
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
	if d.route != nil {
		// Routed flight: the message leaves the NIC and enters the first
		// link of its route now; hopStep carries it to arrival.
		m.hop = 0
		m.hopSpike = d.spike
		m.linkWait = 0
		f.hopStep(d, m, now)
	} else {
		f.arrive(d, flight{m: m, arrival: now + d.lat, rx: d.rx})
	}
	f.injNext(d, now)
}

// hopStep advances a routed message by one link: it books the link's
// serialization capacity in arrival order (waiting behind whatever other
// domains' traffic holds the link — this is where backpressure and
// hotspots emerge), charges one hop of propagation latency, and either
// schedules the next hop or hands the flight to the domain's delivery
// stage. Per-domain FIFO holds: injections of one domain are serialized,
// link service is arrival-ordered and every hop adds identical per-message
// costs, so hop completions of one domain never reorder.
//
//tagalint:hotpath
func (f *Fabric) hopStep(d *dom, m *Message, now time.Duration) {
	l := f.links[d.route[m.hop]]
	start, done := l.res.Reserve(m.hopSer)
	if wait := start - now; wait > 0 {
		m.linkWait += wait
		if f.rec != nil {
			f.rec.Latency("fabric.link_wait", wait)
		}
	}
	l.msgs.Add(1)
	l.bytes.Add(int64(m.Size))
	arrival := done + m.hopLat
	m.hop++
	if m.hop < len(d.route) {
		f.atHop(d, m, arrival)
		return
	}
	f.arrive(d, flight{m: m, arrival: arrival + m.hopSpike, rx: m.hopRx})
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

// injNext starts the domain's next pending injection, or idles the chain.
//
//tagalint:hotpath
func (f *Fabric) injNext(d *dom, now time.Duration) {
	if d.pend.len() > 0 {
		f.startInject(d, now)
	} else {
		d.injBusy = false
	}
}

// delDone runs at a delivery's completion instant: the destination port
// charge is over and the rank's handler consumes the message. The domain's
// (destination, class) never changes and Register precedes traffic, so the
// handler is looked up once and cached on the domain instead of taking the
// fabric lock per message.
//
//tagalint:hotpath
func (f *Fabric) delDone(d *dom, now time.Duration) {
	m := d.curFl.m
	d.curFl = flight{}
	if d.h == nil {
		f.mu.Lock()
		hs := f.hands[m.Class]
		f.mu.Unlock()
		if hs != nil {
			d.h = hs[m.Dst]
		}
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
	} else {
		d.delBusy = false
	}
}

// Close shuts the fabric down. It first waits for every accepted message
// to retire — deliveries still in flight complete, and their handlers may
// keep sending (a rendezvous reply, a read response) without panicking,
// which is what used to strand couriers when ranks exited early — then
// closes the shard queues and joins the couriers. Close is idempotent and
// callable from unregistered goroutines; messages sent after it returns
// panic.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closing {
		// Idempotent re-entry: the first Close tears the fabric down;
		// nothing here can proceed until it finished if it already
		// returned (closed is monotonic), and concurrent re-entry during
		// the drain window simply returns — the fabric is quiescing.
		f.mu.Unlock()
		return
	}
	f.closing = true
	var p *vclock.Parker
	if f.inflight.Load() > 0 {
		p = f.clk.Parker()
		p.SetName("fabric-close")
		p.SetExternal(true)
		f.closeWait = p
	}
	f.mu.Unlock()
	if p != nil {
		// The drain-window park must be registered with the clock even
		// though Close usually runs on a host goroutine: Park decrements
		// the clock's active count, and an unbalanced decrement makes
		// quiescence (active == 0) fire while a courier is still runnable
		// — the courier's own park then drops the count below zero and
		// virtual time freezes with the burst still in flight.
		f.clk.Register()
		p.Park()
		f.clk.Unregister()
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	for _, s := range f.shards {
		s.in.Close()
	}
	f.wg.Wait()
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

// NICStats returns the (tx, rx) resource statistics of one rank's node NIC
// (NICs are per node: all ranks of a node share its injection and
// reception ports).
func (f *Fabric) NICStats(r Rank) (tx, rx vsync.ResourceStats) {
	n := f.topo.NodeOf(r)
	return f.nicTx[n].Stats(), f.nicRx[n].Stats()
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
// of a shaped topology: its endpoints (vertex ids, see
// Topology.Vertices), the messages and bytes that crossed it, and its
// serialization-resource statistics — Waited is the total time messages
// queued at the link's entry, the emergent backpressure signal.
type LinkStats struct {
	From, To int
	Msgs     int64
	Bytes    int64
	Res      vsync.ResourceStats
}

// LinkSnapshots returns the per-link statistics of a shaped topology in
// canonical link order, or nil for a flat topology.
func (f *Fabric) LinkSnapshots() []LinkStats {
	if f.links == nil {
		return nil
	}
	out := make([]LinkStats, len(f.links))
	for i, l := range f.links {
		out[i] = LinkStats{
			From: l.from, To: l.to,
			Msgs: l.msgs.Load(), Bytes: l.bytes.Load(),
			Res: l.res.Stats(),
		}
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

// Reset clears the fabric's statistics counters (traffic totals, NIC,
// intra-node port and per-link statistics), opening a steady-state
// measurement window.
// In-flight traffic and port booking state are untouched.
func (f *Fabric) Reset() {
	f.msgs.Store(0)
	f.bytes.Store(0)
	f.byClass[0].Store(0)
	f.byClass[1].Store(0)
	f.faults.Store(0)
	for i := range f.nicTx {
		f.nicTx[i].ResetStats()
		f.nicRx[i].ResetStats()
	}
	for i := range f.shm {
		f.shm[i].ResetStats()
	}
	for _, l := range f.links {
		l.msgs.Store(0)
		l.bytes.Store(0)
		l.res.ResetStats()
	}
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
// modelling. Each protocol-layer process owns one (no locking).
type Jitterer struct {
	rng  *rand.Rand // nil until the first draw
	seed int64
	rel  float64
}

// NewJitterer returns a jitterer with relative magnitude rel (0 disables),
// seeded deterministically. The generator (a 607-word state) is built by
// the first Apply that draws from it: a job creates one jitterer per rank
// and library, and most of a large job's never draw.
func NewJitterer(seed int64, rel float64) *Jitterer {
	return &Jitterer{seed: seed, rel: rel}
}

// Apply returns d scaled by a uniform factor in [1-rel, 1+rel].
func (j *Jitterer) Apply(d time.Duration) time.Duration {
	if j.rel <= 0 || d <= 0 {
		return d
	}
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(j.seed))
	}
	return time.Duration(float64(d) * (1 + j.rel*(2*j.rng.Float64()-1)))
}
