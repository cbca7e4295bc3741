// Package obs is the unified observability layer of the simulator: a
// low-overhead event tracer producing Chrome trace_event JSON timelines
// (the stand-in for the Extrae/Paraver traces the paper's evaluation is
// built on) and a metrics registry of named counters and fixed-bucket
// latency histograms.
//
// Every instrumented component (the tasking runtime, the GASPI and MPI
// models, the task-aware libraries, the fabric) holds an optional
// *Collector. A nil Collector disables observability entirely: every
// instrumentation site is guarded by a single predictable `rec != nil`
// branch, so the uninstrumented hot paths cost one compare-and-jump and
// nothing else.
//
// Timestamps are the simulation's virtual-clock readings (time.Duration
// since clock start), passed in explicitly by the instrumentation sites.
// The package itself never reads a clock, which keeps traces deterministic
// across identical virtual-time runs and makes the recording layer
// clock-agnostic.
//
// Recording never blocks on modelled time and must never be invoked while
// holding a simulator lock (the tagalint lockcross discipline): every
// instrumentation site records after releasing its component's mutex.
package obs

import "time"

// Cat classifies events for trace filtering, mirroring the event groups of
// the paper's Paraver timelines (task execution, communication, queue
// occupancy, notification latency).
type Cat string

// Event categories.
const (
	CatTask   Cat = "task"   // task lifecycle: create/ready/run/wait/complete
	CatGaspi  Cat = "gaspi"  // one-sided operations: submit/post/complete
	CatMPI    Cat = "mpi"    // two-sided library calls and lock waits
	CatNotify Cat = "notify" // notification waits and fulfilments
	CatPoll   Cat = "poll"   // task-aware polling-task passes
	CatFabric Cat = "fabric" // wire/NIC activity: injection and delivery
	CatColl   Cat = "coll"   // allreduce phases: reduce-scatter/allgather
	CatObs    Cat = "obs"    // tracer self-diagnostics: drop/clamp warnings
)

// Track is the timeline row (the Chrome trace "tid") an event is drawn on
// within its rank. Conventional assignments keep every component on a
// stable, named row.
type Track int32

// Track assignments within one rank.
const (
	// TrackMain is the rank main (task submission, waits, barriers).
	TrackMain Track = 0
	// trackTaskBase starts the per-core task-execution lanes: a running
	// task occupies lane TaskTrack(l) where l is a dense index allocated
	// while its body runs.
	trackTaskBase Track = 1
	// TrackMPI carries the two-sided library calls of the rank.
	TrackMPI Track = 24
	// TrackNotify carries notification fulfilments and waits.
	TrackNotify Track = 30
	// TrackColl carries allreduce phase spans (reduce-scatter, allgather)
	// and per-step collective flow edges.
	TrackColl Track = 31
	// trackQueueBase starts the per-queue GASPI rows: queue q draws on
	// QueueTrack(q).
	trackQueueBase Track = 32
	// TrackFabricTx carries NIC injection spans of messages the rank sent.
	TrackFabricTx Track = 48
	// TrackFabricRx carries delivery instants of messages the rank received.
	TrackFabricRx Track = 49
	// trackPollBase starts the polling-service rows (one per service name).
	trackPollBase Track = 56
)

// TaskTrack returns the timeline row of task-execution lane l.
func TaskTrack(lane int32) Track { return trackTaskBase + Track(lane) }

// QueueTrack returns the timeline row of GASPI queue q.
func QueueTrack(q int) Track { return trackQueueBase + Track(q) }

// PollTrack returns the timeline row of the polling service with the given
// name. The mapping is a stable hash so a service keeps its row across
// runs without central coordination.
func PollTrack(name string) Track {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return trackPollBase + Track(h%8)
}

// TrackName renders the conventional label of a track id, for the trace
// metadata naming the timeline rows.
func TrackName(t Track) string {
	switch {
	case t == TrackMain:
		return "main"
	case t >= trackTaskBase && t < TrackMPI:
		return "core " + itoa(int(t-trackTaskBase))
	case t == TrackMPI:
		return "mpi"
	case t == TrackNotify:
		return "notify"
	case t == TrackColl:
		return "coll"
	case t >= trackQueueBase && t < TrackFabricTx:
		return "gaspi q" + itoa(int(t-trackQueueBase))
	case t == TrackFabricTx:
		return "fabric tx"
	case t == TrackFabricRx:
		return "fabric rx"
	case t >= trackPollBase:
		return "poll " + itoa(int(t-trackPollBase))
	}
	return "track " + itoa(int(t))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Flow-id kind discriminators for FlowID. Fabric message edges do not use
// FlowID (their ids come from the per-ordering-domain sequence, see
// fabric.Message.Flow); every other edge kind hashes its identifying tuple
// under a distinct kind so the id spaces stay disjoint.
const (
	FlowKindLock   int64 = 2 // MPI THREAD_MULTIPLE lock-acquire edges
	FlowKindTask   int64 = 3 // task-dependency release edges
	FlowKindNotify int64 = 4 // GASPI notification fulfilment edges
	FlowKindColl   int64 = 5 // collective per-step data-movement edges
)

// FlowID derives a deterministic causal-flow edge id from a kind
// discriminator and three kind-specific integer components (FNV-1a over
// the tuple). The result is positive and never zero, so callers can use
// zero as "no flow". Components must be deterministic functions of
// modelled state — virtual times, task ids, sequence numbers — never host
// values, so edge ids are byte-stable across reruns.
//
//tagalint:hotpath
func FlowID(kind, a, b, c int64) int64 {
	h := fnvMix(fnvOffset64, uint64(kind))
	h = fnvMix(h, uint64(a))
	h = fnvMix(h, uint64(b))
	h = fnvMix(h, uint64(c))
	id := int64(h &^ (1 << 63))
	if id == 0 {
		id = 1
	}
	return id
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a state byte by byte.
//
//tagalint:hotpath
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Collector receives events and measurements from instrumented
// components: an optional Tracer half (timeline events) and an optional
// Registry half (metrics). Either half may be nil, disabling it; a
// Collector with both halves nil is valid and records nothing. Its
// methods are safe for concurrent use from rank mains, task bodies,
// fabric steps and polling tasks, and never block on modelled time.
type Collector struct {
	Tracer  *Tracer
	Metrics *Registry
}

// NewCollector returns a Collector with both halves enabled, sized for the
// given rank count.
func NewCollector(ranks int) *Collector {
	return &Collector{Tracer: NewTracer(ranks), Metrics: NewRegistry()}
}

// Span records a completed interval [start, end) on the given rank and
// track. arg is an event-specific payload (bytes, a task id, a retired
// count) surfaced in the trace viewer.
func (c *Collector) Span(rank int, track Track, cat Cat, name string, start, end time.Duration, arg int64) {
	if c.Tracer != nil {
		c.Tracer.Span(rank, track, cat, name, start, end, arg)
	}
}

// Instant records a point event at ts.
func (c *Collector) Instant(rank int, track Track, cat Cat, name string, ts time.Duration, arg int64) {
	if c.Tracer != nil {
		c.Tracer.Instant(rank, track, cat, name, ts, arg)
	}
}

// Flow records one endpoint of a causal flow edge at ts: ph 's' starts
// the edge, ph 'f' finishes it, and the two endpoints bind through id.
// Flow ids must be assigned deterministically from modelled state (see
// DESIGN.md §10) so traces stay byte-identical across reruns.
//
//tagalint:hotpath
func (c *Collector) Flow(rank int, track Track, cat Cat, name string, ph byte, ts time.Duration, id int64) {
	if c.Tracer != nil {
		c.Tracer.Flow(rank, track, cat, name, ph, ts, id)
	}
}

// Latency adds one duration sample to the named histogram.
func (c *Collector) Latency(name string, d time.Duration) {
	if c.Metrics != nil {
		c.Metrics.Histogram(name).Observe(d)
	}
}

// Count adds delta to the named counter.
func (c *Collector) Count(name string, delta int64) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Add(delta)
	}
}
