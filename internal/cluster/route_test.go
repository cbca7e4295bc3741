package cluster

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
)

// TestRoutedHopOrderEndToEnd pins the order of routed hops through a whole
// job. On a 1x3 mesh with one rank per node, rank 0 posts a GASPI
// write_notify and then an eager MPI send to rank 2; both cross link 0->1
// and then link 1->2. With ProfileOmniPath's jitter off, every instant
// follows from DESIGN.md's cost rules (§5, §13):
//
//   - a GASPI post costs RDMAOpOverhead on its queue, an MPI call
//     MPIOpOverhead+MPIMatchCost on the library lock;
//   - the source NIC injects one message at a time for InjectOverhead plus
//     the wire time size/bandwidth;
//   - each link serializes a message for its wire time, in arrival order,
//     and adds one hop of latency; the destination NIC then receives it
//     for its wire time again;
//   - RDMA emulation multiplies GASPI latency and wire time by
//     RDMAEmulFactor.
//
// The GASPI payload is large enough that the MPI message, injected right
// behind it, queues on link 0->1 behind it; but it leaves that link for
// link 1->2 earlier, because its hop latency is shorter. So its push onto
// link 0->1's stream sorts ahead of the queued GASPI message, and only that
// insertion lets it reach link 1->2 first: rank 2 receives the MPI message
// at 5.025 µs and the notification at 6.81 µs (a stream that only appends
// would hold the MPI message back until 5.92 µs).
func TestRoutedHopOrderEndToEnd(t *testing.T) {
	const (
		gSize = 8 << 10 // GASPI payload
		mSize = 64      // MPI payload (eager)
		seg   = gaspisim.SegmentID(0)
	)
	p := fabric.ProfileOmniPath()
	p.MPIJitter = 0 // GASPI jitter is a quarter of it
	wire := func(size int, bw float64) time.Duration {
		return time.Duration(float64(size) / bw * float64(time.Second))
	}
	wireM := wire(mSize, p.InterNodeBandwidth)
	wireG := wire(gSize, p.InterNodeBandwidth/p.RDMAEmulFactor)
	latM := p.InterNodeLatency
	latG := time.Duration(float64(p.InterNodeLatency) * p.RDMAEmulFactor)

	// Rank 0: the write_notify is posted first, the send right after it.
	gNIC := p.RDMAOpOverhead + p.InjectOverhead + wireG
	mPosted := p.RDMAOpOverhead + p.MPIOpOverhead + p.MPIMatchCost
	mNIC := gNIC + p.InjectOverhead + wireM // the NIC is still busy with GASPI at mPosted
	gLink01 := gNIC + wireG
	mLink01 := gLink01 + wireM // queued behind GASPI on link 0->1
	mAt12, gAt12 := mLink01+latM, gLink01+latG
	if mPosted >= gNIC || mNIC >= gLink01 || mAt12 >= gAt12 {
		t.Fatalf("ProfileOmniPath changed so that the scenario no longer holds: MPI posted %v, NIC free %v; MPI leaves NIC %v, link 0->1 free %v; reaches link 1->2 at %v, GASPI at %v",
			mPosted, gNIC, mNIC, gLink01, mAt12, gAt12)
	}
	// Link 1->2 serves MPI first; each destination NIC reception follows.
	wantMPI := mAt12 + wireM + latM + wireM
	wantGASPI := max(gAt12, mAt12+wireM) + wireG + latG + wireG

	var gotMPI, gotGASPI time.Duration
	Run(Config{Nodes: 3, RanksPerNode: 1, Profile: p, Shape: fabric.ShapeMesh2D}, func(e *Env) {
		if _, err := e.GASPI.SegmentCreate(seg, gSize); err != nil {
			t.Error(err)
			return
		}
		switch e.Rank {
		case 0:
			if err := e.GASPI.WriteNotify(seg, 0, 2, seg, 0, gSize, 0, 1, 0, nil); err != nil {
				t.Error(err)
			}
			e.MPI.Isend(make([]byte, mSize), 2, 0)
		case 2:
			buf := make([]byte, mSize)
			e.MPI.Wait(e.MPI.Irecv(buf, 0, 0))
			gotMPI = e.Clk.Now()
			if _, ok := e.GASPI.NotifyWaitSome(seg, 0, 1, gaspisim.Block); !ok {
				t.Error("notify wait returned without a notification")
			}
			gotGASPI = e.Clk.Now()
		}
	})
	if gotMPI != wantMPI || gotGASPI != wantGASPI {
		t.Errorf("rank 2 received MPI at %v and GASPI at %v; want %v and %v", gotMPI, gotGASPI, wantMPI, wantGASPI)
	}
}
