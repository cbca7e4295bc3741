// Fault-injection plane of the simulated interconnect (DESIGN.md §9).
//
// A FaultPlan turns the perfectly reliable wire into a degradable one:
// per-class transient delivery failures and latency spikes plus hard link
// outage windows. Every decision is drawn from a deterministic per-path
// hash stream seeded from the plan seed and the path identity, never from
// host randomness or iteration order, so two runs of the same workload
// under the same plan inject exactly the same faults at the same modelled
// times — the property the repository's determinism gates rest on.
//
// Failure semantics split by protocol contract:
//
//   - Messages carrying an OnFailed hook (GASPI data/notify posts) surface
//     the failure to their protocol layer: the hook runs instead of
//     OnInjected and the message is consumed, mirroring how GASPI exposes
//     communication errors through queue error states and timed-out waits.
//   - Messages without the hook (all MPI traffic, internal read responses)
//     are retransmitted transparently after RetransmitDelay, modelling a
//     reliable transport that hides faults by paying time — the MPI
//     contract, under which the library may never show a lost message.
package fabric

import (
	"fmt"
	"time"
)

// FaultRates sets the transient-fault probabilities of one protocol class
// on the faulted links. The zero value never faults.
type FaultRates struct {
	// Drop is the per-injection probability that delivering the message
	// fails. Must be in [0, 1]; a transparently-retransmitted class (MPI)
	// additionally requires Drop < 1 or retransmission cannot converge.
	Drop float64
	// Jitter is the per-injection probability that a successfully
	// injected message suffers a latency spike of Spike.
	Jitter float64
	// Spike is the extra one-way flight latency of a jitter hit.
	Spike time.Duration
}

// zero reports whether the rates can never produce a fault.
func (r FaultRates) zero() bool {
	return r.Drop <= 0 && (r.Jitter <= 0 || r.Spike <= 0)
}

// AnyNode is the wildcard vertex id for Link selectors: a field set to
// AnyNode matches every vertex of the topology.
const AnyNode = -1

// Link selects directed links by their endpoint vertices; a negative
// field (AnyNode) matches any vertex. On a flat topology the endpoints
// are node ids and a link is an inter-node pair; on a shaped topology
// (ring, mesh, fat-tree) they are route-vertex ids — nodes first, then
// switches, see Topology.Vertices — and the selector matches the
// individual links of a route, so a selector on an inner link applies to
// every route crossing it.
//
// CAUTION: the zero value Link{} selects only the 0->0 link, not every
// link. Wildcard intent must be explicit: use AnyLink (or set the fields
// to AnyNode). SetFaultPlan rejects selectors naming vertices outside the
// topology, so a typo'd id fails loudly instead of silently matching
// nothing.
type Link struct {
	SrcNode, DstNode int
}

// AnyLink returns the wildcard link selector: it matches every link of
// the topology. Use it instead of the zero value Link{}, which selects
// only the 0->0 link.
func AnyLink() Link { return Link{SrcNode: AnyNode, DstNode: AnyNode} }

// matches reports whether the link selects the (src, dst) node pair.
func (l Link) matches(src, dst int) bool {
	return (l.SrcNode < 0 || l.SrcNode == src) && (l.DstNode < 0 || l.DstNode == dst)
}

// Outage is a hard link-failure window: every injection attempted on a
// matching link during [Start, End) fails regardless of class rates, and
// delivery resumes at End (link recovery).
type Outage struct {
	Link       Link
	Start, End time.Duration // modelled time since clock start
}

// FaultPlan describes the fault-injection plane of one job. The zero value
// disables it entirely: with an empty plan the fabric hot path is the same
// single nil check it was without the plane, and modelled results are
// byte-identical to a fabric without fault support. Intra-node
// (shared-memory) traffic never faults.
type FaultPlan struct {
	MPI   FaultRates // transient faults on ClassMPI messages
	GASPI FaultRates // transient faults on ClassGASPI messages

	// Links restricts transient faults to the selected inter-node links;
	// empty means every inter-node link.
	Links []Link

	// Outages are hard link-failure windows, applied to every class.
	Outages []Outage

	// RetransmitDelay is the back-off before a transparently
	// retransmitted message is re-injected. Zero selects
	// DefaultRetransmitDelay.
	RetransmitDelay time.Duration
}

// DefaultRetransmitDelay is the transparent-retransmission back-off used
// when a plan leaves RetransmitDelay zero: the order of a hardware/
// transport-level retry timeout, large against injection overheads and
// small against outage windows.
const DefaultRetransmitDelay = 5 * time.Microsecond

// maxTransparentRetries bounds transparent retransmission of one message;
// exceeding it is a configuration error (a Drop rate of 1 on a class with
// no failure hook), reported by panic rather than a silent livelock.
const maxTransparentRetries = 1 << 20

// Enabled reports whether the plan can inject any fault.
func (fp FaultPlan) Enabled() bool {
	return !fp.MPI.zero() || !fp.GASPI.zero() || len(fp.Outages) > 0
}

// validate panics on plans that cannot be simulated faithfully.
func (fp FaultPlan) validate() {
	check := func(class string, r FaultRates) {
		// Written so NaN fails too: roll() < NaN is never true, so a NaN
		// rate would enable the plan and inject nothing.
		if !(r.Drop >= 0 && r.Drop <= 1) || !(r.Jitter >= 0 && r.Jitter <= 1) {
			panic(fmt.Sprintf("fabric: %s fault rates out of [0,1]: %+v", class, r))
		}
		if r.Spike < 0 {
			// A negative spike would subtract flight latency and can put a
			// delivery step before the current instant, violating time
			// ordering.
			panic(fmt.Sprintf("fabric: %s Spike must be >= 0: %v", class, r.Spike))
		}
	}
	check("MPI", fp.MPI)
	check("GASPI", fp.GASPI)
	if fp.MPI.Drop >= 1 {
		panic("fabric: MPI.Drop must be < 1: MPI messages are retransmitted transparently and a total loss rate never converges")
	}
	for _, o := range fp.Outages {
		if o.End <= o.Start || o.Start < 0 {
			panic(fmt.Sprintf("fabric: invalid outage window [%v, %v)", o.Start, o.End))
		}
	}
}

// SetFaultPlan installs the fault-injection plane. Like SetRecorder it
// must be called before any traffic flows; derive the seed from the run's
// identity (SeedOf), not from iteration order, so the injected faults are
// a pure function of (plan, seed, workload).
func (f *Fabric) SetFaultPlan(plan FaultPlan, seed int64) {
	plan.validate()
	f.validateSelectors(plan)
	if plan.RetransmitDelay <= 0 {
		plan.RetransmitDelay = DefaultRetransmitDelay
	}
	f.mu.Lock()
	f.plan = plan
	f.planOn = plan.Enabled()
	f.faultSeed = seed
	f.mu.Unlock()
}

// validateSelectors panics on Link selectors naming vertices outside the
// fabric's topology. An out-of-range id (SrcNode: 99 on a 4-node
// topology) used to silently match nothing, turning the fault
// restriction or outage into a no-op; failing at plan installation makes
// the typo loud.
func (f *Fabric) validateSelectors(plan FaultPlan) {
	verts := f.topo.Vertices()
	check := func(what string, l Link) {
		if l.SrcNode >= verts || l.DstNode >= verts {
			panic(fmt.Sprintf(
				"fabric: %s %+v names a vertex outside the topology (%d vertices); use AnyLink or AnyNode for wildcards",
				what, l, verts))
		}
	}
	for _, l := range plan.Links {
		check("fault-plan link selector", l)
	}
	for _, o := range plan.Outages {
		check("outage link selector", o.Link)
	}
}

// pathFaults is the fault state of one ordering domain, owned by the
// domain's injection chain: one step at a time draws from the decision
// stream, so no locking and a host-schedule-independent sequence.
type pathFaults struct {
	drop, jitter float64
	spike        time.Duration
	outages      []Outage // windows covering this link, all classes
	retrans      time.Duration
	seed         uint64
	seq          uint64
}

// faultsFor computes the fault state of a newly created path, or nil when
// the plan cannot fault it (intra-node, unselected link, zero class
// rates and no covering outage). Called under f.mu from Send.
//
// On a flat topology a selector matches the (source node, destination
// node) pair — the only link the path crosses. On a shaped topology it
// matches the individual links of the path's route: an outage on an
// inner link severs every route crossing it, and the decision is still
// made at injection time (the source keeps retrying — or surfacing
// failures — until the route heals), so the fault plane stays entirely
// in the injection state machine.
func (f *Fabric) faultsFor(key pathKey, route []uint16) *pathFaults {
	if !f.planOn || f.topo.SameNode(key.src, key.dst) {
		return nil
	}
	srcN, dstN := f.topo.NodeOf(key.src), f.topo.NodeOf(key.dst)
	rates := f.plan.MPI
	if key.class == ClassGASPI {
		rates = f.plan.GASPI
	}
	matches := func(l Link) bool {
		if route == nil {
			return l.matches(srcN, dstN)
		}
		for _, li := range route {
			if tl := f.topo.links[li]; l.matches(tl.from, tl.to) {
				return true
			}
		}
		return false
	}
	covered := len(f.plan.Links) == 0
	for _, l := range f.plan.Links {
		if matches(l) {
			covered = true
			break
		}
	}
	var outs []Outage
	for _, o := range f.plan.Outages {
		if matches(o.Link) {
			outs = append(outs, o)
		}
	}
	if (rates.zero() || !covered) && len(outs) == 0 {
		return nil
	}
	pf := &pathFaults{
		outages: outs,
		retrans: f.plan.RetransmitDelay,
		seed:    pathSeed(f.faultSeed, key),
	}
	if covered {
		pf.drop, pf.jitter, pf.spike = rates.Drop, rates.Jitter, rates.Spike
	}
	return pf
}

// pathSeed folds the plan seed and the path identity into the stream seed.
func pathSeed(seed int64, key pathKey) uint64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(key.src)<<1 ^ uint64(key.dst)<<21)
	h = mix64(h ^ uint64(key.class)<<41 ^ uint64(key.lane)<<45)
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Decision-stream salts separating the drop and jitter draws.
const (
	saltDrop   uint64 = 0xd1b54a32d192ed03
	saltJitter uint64 = 0x8bb84b93962eacc9
)

// roll draws the next uniform [0,1) variate of the path's decision stream.
func (pf *pathFaults) roll(salt uint64) float64 {
	pf.seq++
	return float64(mix64(pf.seed^salt^pf.seq*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}

// outageAt reports whether an outage window covers the instant now.
func (pf *pathFaults) outageAt(now time.Duration) bool {
	for _, o := range pf.outages {
		if now >= o.Start && now < o.End {
			return true
		}
	}
	return false
}
