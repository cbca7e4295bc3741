// Package collectives implements the ring allreduce of the simulated
// cluster (gaspi_allreduce / MPI_Allreduce) over all three communication
// backends:
//
//   - blocking MPI: point-to-point rounds on reserved collective tags
//     drawn from the mpisim process-wide epoch allocator
//     (mpisim.CollectiveEpoch / mpisim.CollectiveTag), the allocator
//     mpisim's own Barrier draws from;
//   - blocking GASPI: a segment-based ring where every phase step is one
//     gaspi_write_notify into the peer's staging slot, awaited with
//     gaspi_notify_waitsome (parking the rank);
//   - task-aware TAGASPI: the same ring schedule submitted as a chain of
//     tasks whose execution is gated by tagaspi_notify_iwait-registered
//     external events — notification arrival fulfils the event from the
//     polling service, so no worker ever parks in a collective wait
//     (the paper's §IV idiom lifted from point-to-point to collectives).
//
// All three backends run the identical communication schedule
// (schedule.go), so a given reduction combines values in the same order
// everywhere and results are bit-identical across backends — the
// cross-backend equivalence contract DESIGN.md §12 documents, along with
// the epoch/tag namespace rules and the ring consumption acks that make
// staging-slot reuse safe.
//
// Every rank must issue the same collective sequence on a Comm (the MPI
// ordering requirement); epochs, notification ids and reserved tags are
// all derived from that shared sequence without wire traffic.
package collectives

import (
	"fmt"
	"time"

	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
	"repro/internal/vclock"
)

// Seg is the reserved segment id of the collectives layer
// (gaspi_segment_id_t). The GASPI-backed comms create it at construction
// time; applications must not register it themselves — the dedicated
// segment is what keeps collective notification ids and staging offsets
// out of every application segment's namespace.
const Seg gaspisim.SegmentID = 0xC0

// Op is a reduction operator, the simulator's rendering of MPI_Op /
// gaspi_operation_t. Each is associative over the ring's combine order and
// identical on every rank; combine runs one loop per operator.
type Op uint8

// Reduction operators (MPI_SUM / MPI_MAX / MPI_MIN, gaspi_operation_t's
// GASPI_OP_SUM / GASPI_OP_MAX / GASPI_OP_MIN).
const (
	// Sum adds the two operands (MPI_SUM).
	Sum Op = iota
	// Max keeps the larger operand (MPI_MAX), as math.Max does.
	Max
	// Min keeps the smaller operand (MPI_MIN), as math.Min does.
	Min
)

// backend discriminates the comm's driving library.
type backend int

const (
	backMPI backend = iota
	backGASPI
	backTAGASPI
)

var backendNames = []string{"mpi", "gaspi", "tagaspi"}

// commQueue is the GASPI queue the GASPI-backed comms post on.
const commQueue = 0

// Option customises a Comm at construction time.
type Option func(*Comm)

// WithRecorder installs the trace recorder collective phases are stamped
// through: phase spans on obs.TrackColl plus one "flow:coll" causal edge
// per ring step, so critpath blame can attribute collective time to
// notify_wait vs mpi_lock_wait per backend. A nil recorder (the default)
// keeps the comm uninstrumented.
func WithRecorder(rec *obs.Collector) Option { return func(c *Comm) { c.rec = rec } }

// WithElemCost sets the modelled compute cost per combined element (the
// local reduction arithmetic). Blocking backends sleep it on the rank
// main; the task-aware backend charges it to the combining task's core.
// Zero (the default) makes combines free.
func WithElemCost(d time.Duration) Option { return func(c *Comm) { c.elemCost = d } }

// Comm is a per-rank collectives communicator bound to one backend, the
// analogue of an MPI communicator (always world-sized here) plus a GASPI
// segment-and-notification namespace. Construct it with NewMPI, NewGASPI
// or NewTAGASPI; every rank must construct its comm with identical
// parameters and then issue identical collective sequences.
type Comm struct {
	rank, n  int
	maxElems int // largest vector any collective on this comm may carry
	chunkMax int // elems: largest ring chunk (maxElems/n)
	steps    int // ring steps per allreduce and staging slots per parity: 2*(n-1)

	elemCost time.Duration
	rec      *obs.Collector
	clk      *vclock.VirtualClock

	backend backend
	mpi     *mpisim.Proc
	g       *gaspisim.Proc
	seg     *memory.Segment
	tg      *tagaspi.Library
	rt      *tasking.Runtime

	// epoch counts the collectives issued on this comm; all ranks agree
	// on it by the ordering requirement, so it namespaces notification
	// ids, staging parities and flow-edge ids without wire traffic.
	epoch int
	// lastRing holds, per staging parity, the epoch of the last ring
	// collective whose consumption ack is still outstanding (-1: none).
	lastRing [2]int

	// key is the dependency object serialising the task-aware backend's
	// collective task chains (successive collectives on one comm are
	// ordered InOut on it).
	key *int

	// taOpStart / taPhaseStart carry phase-span timestamps between the
	// tasks of one task-aware collective; tasks on one comm are
	// serialised by key, so plain fields are race-free.
	taOpStart    time.Duration
	taPhaseStart time.Duration

	// Scratch buffers of the MPI backend (the one-sided backends stage
	// through the collective segment instead).
	sendBuf []byte
	recvBuf []byte
}

// NewMPI builds the blocking-MPI communicator: collectives run as
// point-to-point rounds on reserved tags drawn from p's collective epoch
// allocator, so they can never collide with application tags (>= 0) nor
// with the epochs of mpisim's own Barrier, the one collective mpisim
// implements. maxElems bounds the vector length of any allreduce issued
// on the comm.
func NewMPI(p *mpisim.Proc, maxElems int, opts ...Option) *Comm {
	c := newComm(int(p.Rank()), p.Size(), maxElems)
	c.backend = backMPI
	c.mpi = p
	c.clk = p.Clock()
	c.sendBuf = make([]byte, c.chunkMax*memory.F64Bytes)
	c.recvBuf = make([]byte, c.chunkMax*memory.F64Bytes)
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewGASPI builds the blocking one-sided communicator: collectives run as
// gaspi_write_notify rings through the reserved collective segment (Seg),
// awaited with gaspi_notify_waitsome. The constructor is collective — it
// creates Seg on every rank with a size derived from maxElems, and every
// rank must pass the same maxElems or remote staging offsets would
// disagree. It fails if the application already registered Seg.
func NewGASPI(p *gaspisim.Proc, maxElems int, opts ...Option) (*Comm, error) {
	c := newComm(int(p.Rank()), p.Size(), maxElems)
	c.backend = backGASPI
	c.g = p
	c.clk = p.Clock()
	seg, err := p.SegmentCreate(Seg, segSize(c.chunkMax, c.steps))
	if err != nil {
		return nil, fmt.Errorf("collectives: reserved segment %d: %w", Seg, err)
	}
	c.seg = seg
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// NewTAGASPI builds the task-aware communicator: collectives are
// submitted as task chains on rt whose steps are gated by
// tagaspi_notify_iwait external events and whose writes bind local
// completion to task events — the §IV integration pattern, so no worker
// parks inside a collective. Calls return once the chain is submitted;
// results materialise when it completes (Drain, or successor tasks
// ordered behind the comm's collectives). Like NewGASPI it collectively
// creates the reserved segment Seg sized from maxElems.
func NewTAGASPI(l *tagaspi.Library, rt *tasking.Runtime, maxElems int, opts ...Option) (*Comm, error) {
	p := l.Proc()
	c, err := NewGASPI(p, maxElems, opts...)
	if err != nil {
		return nil, err
	}
	c.backend = backTAGASPI
	c.tg = l
	c.rt = rt
	return c, nil
}

// newComm builds the backend-independent core.
func newComm(rank, n, maxElems int) *Comm {
	if maxElems <= 0 {
		panic("collectives: maxElems must be positive")
	}
	c := &Comm{
		rank: rank, n: n, maxElems: maxElems,
		chunkMax: maxElems / n,
		steps:    2 * (n - 1),
		key:      new(int),
	}
	if c.chunkMax == 0 {
		c.chunkMax = 1
	}
	c.lastRing[0], c.lastRing[1] = -1, -1
	return c
}

// Allreduce element-wise reduces in across all ranks with op and leaves
// the full reduced vector in out on every rank (MPI_Allreduce /
// gaspi_allreduce), via ring reduce-scatter followed by ring allgather —
// 2*(n-1) steps moving 2*len(in)/n elements each. len(in) must equal
// len(out), be divisible by the world size and not exceed maxElems (the
// gaspi_allreduce element-count restriction, documented in DESIGN.md
// §12). On the task-aware backend the call only submits the chain; out
// holds the result after Drain (or behind successor tasks on the comm),
// and — MPI nonblocking semantics — the caller must not modify in or
// read out until the chain has run: step 0 reads in at task execution
// time, not at submission.
func (c *Comm) Allreduce(in, out []float64, op Op) {
	c.checkVec(in, out)
	epoch := c.nextEpoch()
	if c.n == 1 {
		copy(out, in)
		return
	}
	switch c.backend {
	case backMPI:
		copy(out, in)
		c.mpiRing(epoch, out, op)
	case backGASPI:
		copy(out, in)
		c.gaspiRing(epoch, out, op)
	default:
		c.taRing(epoch, in, out, op)
	}
}

// Drain blocks until every collective submitted on a task-aware comm has
// completed, so the caller may read result buffers; it is a taskwait over
// the runtime (the pattern §IV's applications end phases with). Blocking
// backends complete synchronously, so it is a no-op there.
func (c *Comm) Drain() {
	if c.backend == backTAGASPI {
		c.rt.TaskWait()
	}
}

// checkVec validates a full-vector operand pair.
func (c *Comm) checkVec(in, out []float64) {
	if len(in) == 0 || len(in) > c.maxElems {
		panic(fmt.Sprintf("collectives: vector length %d outside (0,%d]", len(in), c.maxElems))
	}
	if len(in)%c.n != 0 {
		panic(fmt.Sprintf("collectives: vector length %d not divisible by world size %d", len(in), c.n))
	}
	if len(out) != len(in) {
		panic("collectives: in/out length mismatch")
	}
}

// nextEpoch reserves this comm's next collective epoch (shared across all
// ranks by the ordering requirement).
func (c *Comm) nextEpoch() int {
	e := c.epoch
	c.epoch++
	return e
}

// compute charges the modelled combine cost of elems elements to the rank
// main (blocking backends).
func (c *Comm) compute(elems int) {
	if c.elemCost > 0 {
		c.clk.Sleep(c.elemCost * time.Duration(elems))
	}
}

// span records a collective-phase span on the comm's rank.
func (c *Comm) span(name string, start, end time.Duration, arg int64) {
	if c.rec != nil {
		c.rec.Span(c.rank, obs.TrackColl, obs.CatColl, name, start, end, arg)
	}
}

// stepFlowID derives the deterministic causal-edge id of one ring step's
// chunk movement: (epoch, step, destination rank) under FlowKindColl.
func stepFlowID(epoch, step, dst int) int64 {
	return obs.FlowID(obs.FlowKindColl, int64(epoch), int64(step), int64(dst))
}

// flowStart stamps the sending half of a collective step edge.
func (c *Comm) flowStart(ts time.Duration, id int64) {
	if c.rec != nil {
		c.rec.Flow(c.rank, obs.TrackColl, obs.CatColl, "flow:coll", 's', ts, id)
	}
}

// flowFinish stamps the consuming half of a collective step edge.
func (c *Comm) flowFinish(ts time.Duration, id int64) {
	if c.rec != nil {
		c.rec.Flow(c.rank, obs.TrackColl, obs.CatColl, "flow:coll", 'f', ts, id)
	}
}

// latency records one completed collective's modelled duration.
func (c *Comm) latency(name string, d time.Duration) {
	if c.rec != nil {
		c.rec.Latency(name, d)
	}
}

// must panics on a hard backend error (a failed post outside the fault
// plane's recoverable surface); blocking collectives have no retry path —
// fault tolerance is the task-aware backend's job (tagaspi retries).
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("collectives: %v", err))
	}
}
