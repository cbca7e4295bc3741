// Fault-injection plane of the simulated interconnect (DESIGN.md §9).
//
// A FaultPlan turns the perfectly reliable wire into a lossy one: a
// per-class probability that an inter-node injection fails. Every
// decision is drawn from a deterministic per-path hash stream seeded from
// the plan seed and the path identity, never from host randomness or
// iteration order, so two runs of the same workload under the same plan
// inject exactly the same faults at the same modelled times — the
// property the repository's determinism gates rest on.
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

// FaultPlan describes the fault-injection plane of one job: the
// per-injection probability that delivering an inter-node message of each
// protocol class fails. The zero value disables it entirely: with an
// empty plan the fabric hot path is the same single nil check it was
// without the plane, and modelled results are byte-identical to a fabric
// without fault support. Intra-node (shared-memory) traffic never faults.
type FaultPlan struct {
	// MPIDrop is the drop rate of ClassMPI messages. Must be in [0, 1):
	// MPI traffic is retransmitted transparently, and a total loss rate
	// never converges.
	MPIDrop float64
	// GASPIDrop is the drop rate of ClassGASPI messages, in [0, 1].
	GASPIDrop float64
}

// RetransmitDelay is the back-off before a transparently retransmitted
// message is re-injected: the order of a hardware/transport-level retry
// timeout, large against injection overheads.
const RetransmitDelay = 5 * time.Microsecond

// maxTransparentRetries bounds transparent retransmission of one message;
// exceeding it is a configuration error (a drop rate of 1 on a class with
// no failure hook), reported by panic rather than a silent livelock.
const maxTransparentRetries = 1 << 20

// Enabled reports whether the plan can inject any fault.
func (fp FaultPlan) Enabled() bool {
	return fp.MPIDrop > 0 || fp.GASPIDrop > 0
}

// validate panics on plans that cannot be simulated faithfully.
func (fp FaultPlan) validate() {
	// Written so NaN fails too: roll() < NaN is never true, so a NaN rate
	// would enable the plan and inject nothing.
	if !(fp.MPIDrop >= 0 && fp.MPIDrop <= 1) || !(fp.GASPIDrop >= 0 && fp.GASPIDrop <= 1) {
		panic(fmt.Sprintf("fabric: fault drop rates out of [0,1]: %+v", fp))
	}
	if fp.MPIDrop >= 1 {
		panic("fabric: MPIDrop must be < 1: MPI messages are retransmitted transparently and a total loss rate never converges")
	}
}

// SetFaultPlan installs the fault-injection plane. Like SetRecorder it
// must be called before any traffic flows; derive the seed from the run's
// identity (SeedOf), not from iteration order, so the injected faults are
// a pure function of (plan, seed, workload).
func (f *Fabric) SetFaultPlan(plan FaultPlan, seed int64) {
	plan.validate()
	f.mu.Lock()
	f.plan = plan
	f.planOn = plan.Enabled()
	f.faultSeed = seed
	f.mu.Unlock()
}

// pathFaults is the fault state of one ordering domain, owned by the
// domain's injection chain: one step at a time draws from the decision
// stream, so no locking and a host-schedule-independent sequence.
type pathFaults struct {
	drop float64
	seed uint64
	seq  uint64
}

// faultsFor computes the fault state of a newly created path, or nil when
// the plan cannot fault it (intra-node, or a zero drop rate for its
// class). Called under f.mu from Send. The decision is made at injection
// time, so on a shaped topology a dropped message never enters its route.
func (f *Fabric) faultsFor(key pathKey) *pathFaults {
	if !f.planOn || f.topo.SameNode(key.src, key.dst) {
		return nil
	}
	drop := f.plan.MPIDrop
	if key.class == ClassGASPI {
		drop = f.plan.GASPIDrop
	}
	if drop <= 0 {
		return nil
	}
	return &pathFaults{drop: drop, seed: pathSeed(f.faultSeed, key)}
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

// saltDrop separates the drop decision stream from the path seed.
const saltDrop uint64 = 0xd1b54a32d192ed03

// roll draws the next uniform [0,1) variate of the path's decision stream.
func (pf *pathFaults) roll() float64 {
	pf.seq++
	return float64(mix64(pf.seed^saltDrop^pf.seq*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}
