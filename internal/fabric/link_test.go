package fabric

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// lineRoute returns the two links of rank 0's route to rank 2 on a 1x3
// mesh (one rank per node): 0->1, then 1->2.
func lineRoute(t *testing.T, topo Topology) (l01, l12 int) {
	t.Helper()
	r := topo.routeOf(0, 2)
	if len(r) != 2 {
		t.Fatalf("1x3 mesh route 0->2 has %d links, want 2", len(r))
	}
	l01, l12 = int(r[0]), int(r[1])
	if a, b := topo.links[l01], topo.links[l12]; a.from != 0 || a.to != 1 || b.from != 1 || b.to != 2 {
		t.Fatalf("route 0->2 is %d->%d, %d->%d; want 0->1, 1->2", a.from, a.to, b.from, b.to)
	}
	return l01, l12
}

// TestLinkStreamFootprint gates the host memory of a link's stream. Rank 0
// sends a few thousand messages to rank 2 of a 1x3 mesh in one burst: the
// source NIC injects one every 271 ns and each spends 21 ns on link 0->1
// plus 1.5 µs of propagation, so that link's stream holds about six
// messages from the first injection to the last and never drains. Its
// buffer must stay at that backlog, compacting in place, instead of
// growing with the total message count.
func TestLinkStreamFootprint(t *testing.T) {
	const n = 4000
	clk := vclock.NewVirtual()
	topo := NewMeshTopology(3, 1)
	f := New(clk, topo, ProfileOmniPath())
	l01, _ := lineRoute(t, topo)
	out := &f.links[l01].out
	clk.Register()
	defer clk.Unregister()
	done := clk.Parker()
	delivered, high, drained := 0, 0, 0
	f.Register(2, ClassMPI, func(*Message) {
		delivered++
		high = max(high, out.Len())
		if out.Len() == 0 && delivered < n-16 {
			drained++
		}
		if delivered == n {
			done.Unpark()
		}
	})
	for i := 0; i < n; i++ {
		m := NewMessage()
		m.Src, m.Dst, m.Class, m.Size = 0, 2, ClassMPI, 256
		f.Send(m)
	}
	done.Park()
	f.Close()
	t.Logf("link 0->1 stream: backlog high-water mark %d items, buffer %d slots, %d messages", high, out.Cap(), n)
	if drained > 0 || high == 0 || 20*high > n {
		t.Fatalf("stream drained at %d deliveries with a high-water mark of %d: the burst does not keep one stream busy", drained, high)
	}
	if out.Cap() > 4*high {
		t.Fatalf("link stream buffer holds %d slots for a backlog of at most %d: it grows with the message count instead of compacting", out.Cap(), high)
	}
}

// TestLinkStreamOutOfOrderPush pins the stream's insertion path with
// hand-computed instants. On a 1x3 mesh, rank 0 sends a 1 KiB GASPI message
// and then an MPI control packet to rank 2, both at t = 0. ProfileOmniPath
// emulates RDMA, so the GASPI message pays RDMAEmulFactor (1.1) on latency
// and wire time; the control packet pays a header slot of InjectOverhead/4
// at the port and on each link:
//
//	wire(GASPI) = 1024 B / (12e9 B/s / 1.1)              =   93 ns
//	lat(GASPI)  = 1500 ns × 1.1                           = 1650 ns
//	NIC 0       GASPI [0, 250+93=343], MPI [343, 343+62=405]
//	link 0->1   GASPI [343, 436],      MPI waits 31: [436, 498]
//	link 1->2   MPI arrives 498+1500 = 1998: [1998, 2060]
//	            GASPI arrives 436+1650 = 2086: [2086, 2179]
//	delivery    MPI  2060+1500 = 3560 (no reception cost)
//	            GASPI 2179+1650 = 3829, NIC 2 receives 93 ns: 3922
//
// Link 0->1 serves the GASPI message first, but the MPI packet leaves it
// for link 1->2 88 ns earlier: its push onto link 0->1's stream sorts
// ahead of the queued head, and only the insertion (with the re-key of
// the stream's clock event) lets it reach link 1->2 at 1998.
func TestLinkStreamOutOfOrderPush(t *testing.T) {
	p := ProfileOmniPath()
	if p.InterNodeLatency != 1500*time.Nanosecond || p.InjectOverhead != 250*time.Nanosecond ||
		p.InterNodeBandwidth != 12e9 || !p.RDMAEmulated || p.RDMAEmulFactor != 1.1 {
		t.Fatalf("ProfileOmniPath changed; recompute the instants in this test's comment: %+v", p)
	}
	const (
		arriveMPI    = 1998 * time.Nanosecond
		arriveGASPI  = 2086 * time.Nanosecond
		deliverMPI   = 3560 * time.Nanosecond
		deliverGASPI = 3922 * time.Nanosecond
	)
	clk := vclock.NewVirtual()
	topo := NewMeshTopology(3, 1)
	f := New(clk, topo, p)
	l01, l12 := lineRoute(t, topo)
	clk.Register()
	defer clk.Unregister()
	done := clk.Parker()
	var delivered [2]time.Duration
	left := 2
	for _, class := range []Class{ClassMPI, ClassGASPI} {
		f.Register(2, class, func(m *Message) {
			delivered[m.Class] = clk.Now()
			if left--; left == 0 {
				done.Unpark()
			}
		})
	}
	g := NewMessage()
	g.Src, g.Dst, g.Class, g.Size = 0, 2, ClassGASPI, 1024
	f.Send(g)
	m := NewMessage()
	m.Src, m.Dst, m.Class, m.Control = 0, 2, ClassMPI, true
	f.Send(m)

	// Both hops were pushed by 405 ns; the driver sleeps from 1 µs on, so
	// at any later instant it wakes after that instant's hop. Link 1->2's
	// use count one nanosecond apart pins each arrival.
	usesAt := func(at time.Duration) int64 {
		clk.Sleep(at - clk.Now())
		return f.links[l12].srv.Stats().Uses
	}
	clk.Sleep(time.Microsecond)
	if n := f.links[l01].out.Len(); n != 2 {
		t.Fatalf("at 1 µs link 0->1's stream holds %d messages, want both", n)
	}
	for _, c := range []struct {
		name   string
		at     time.Duration
		before int64
	}{{"MPI", arriveMPI, 0}, {"GASPI", arriveGASPI, 1}} {
		if got := usesAt(c.at - 1); got != c.before {
			t.Errorf("link 1->2 served %d messages at %v, before the %s arrival at %v; want %d", got, c.at-1, c.name, c.at, c.before)
		}
		if got := usesAt(c.at); got != c.before+1 {
			t.Errorf("link 1->2 served %d messages at %v, the %s arrival; want %d", got, c.at, c.name, c.before+1)
		}
	}
	done.Park()
	f.Close()
	if delivered[ClassMPI] != deliverMPI || delivered[ClassGASPI] != deliverGASPI {
		t.Errorf("delivered MPI at %v and GASPI at %v; want %v and %v",
			delivered[ClassMPI], delivered[ClassGASPI], deliverMPI, deliverGASPI)
	}
	links := f.LinkSnapshots()
	if s := links[l01].Res; s.Uses != 2 || s.Waited != 31*time.Nanosecond || s.Busy != 93*time.Nanosecond+62*time.Nanosecond {
		t.Errorf("link 0->1: %+v; want 2 uses, 31 ns waited, 155 ns busy", s)
	}
	if s := links[l12].Res; s.Uses != 2 || s.Waited != 0 {
		t.Errorf("link 1->2: %+v; want 2 uses and no wait", s)
	}
}
