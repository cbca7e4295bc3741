package fabric

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// delivery is one handler invocation: the rank whose handler ran, the
// message's destination and payload, and the delivery instant.
type delivery struct {
	rank, dst Rank
	payload   int
	at        time.Duration
}

// reuseRig is a fabric whose every rank logs its deliveries of one class,
// driven by one registered goroutine (run), so the log needs no lock.
type reuseRig struct {
	clk *vclock.VirtualClock
	f   *Fabric
	log []delivery
}

func newReuseRig(topo Topology, prof Profile, class Class) *reuseRig {
	g := &reuseRig{clk: vclock.NewVirtual()}
	g.f = New(g.clk, topo, prof)
	for r := 0; r < topo.Ranks(); r++ {
		r := Rank(r)
		g.f.Register(r, class, func(m *Message) {
			g.log = append(g.log, delivery{rank: r, dst: m.Dst, payload: m.Payload.(int), at: g.clk.Now()})
		})
	}
	return g
}

// run executes script as the only registered goroutine and waits for it.
func (g *reuseRig) run(script func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	g.clk.Go(func() {
		defer wg.Done()
		script()
	})
	wg.Wait()
}

func (g *reuseRig) send(src, dst Rank, class Class, payload int) {
	g.f.Send(&Message{Src: src, Dst: dst, Class: class, Size: 1000, Payload: payload})
}

// sleepUntil parks the script until virtual instant at.
func (g *reuseRig) sleepUntil(at time.Duration) { g.clk.Sleep(at - g.clk.Now()) }

// check compares the delivery log with want, in order: per-domain FIFO,
// closed-form instants and the destination rank's own handler.
func (g *reuseRig) check(t *testing.T, want []delivery) {
	t.Helper()
	for _, d := range g.log {
		if d.rank != d.dst {
			t.Errorf("payload %d for rank %d ran rank %d's handler", d.payload, d.dst, d.rank)
		}
	}
	if len(g.log) != len(want) {
		t.Fatalf("deliveries %+v, want %+v", g.log, want)
	}
	for i, w := range want {
		if g.log[i] != w {
			t.Errorf("delivery %d = %+v, want %+v", i, g.log[i], w)
		}
	}
}

// domOf returns the record carrying key's traffic, nil while the key is
// idle.
func domOf(f *Fabric, key pathKey) *dom {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doms[key]
}

// freeRecords returns the free list, reporting a record filed twice (the
// list would then hand one record to two keys).
func freeRecords(t *testing.T, f *Fabric) []*dom {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[*dom]bool)
	var out []*dom
	for d := f.domFree; d != nil; d = d.next {
		if seen[d] {
			t.Errorf("record %p is on the free list twice", d)
			break
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// liveDoms returns how many domains carry traffic.
func liveDoms(f *Fabric) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.doms)
}

// TestDomainReuseAcrossKeys releases an intra-node flat domain and has an
// inter-node key routed over two mesh links reuse its record, re-creates
// the first key while the second still has flights queued, and finally
// has the first key reuse the routed record. testProfile on 1,000-byte
// messages: intra-node 500 ns copy + 100 ns latency; inter-node 1 µs
// injection, then per link 1 µs serialization + 1 µs latency, then 1 µs
// reception, so three back-to-back routed sends deliver 6, 7 and 8 µs
// after the send.
func TestDomainReuseAcrossKeys(t *testing.T) {
	const us = time.Microsecond
	topo := NewMeshTopology(4, 2)
	if r := topo.routeOf(0, 3); len(r) != 2 {
		t.Fatalf("mesh route 0->3 has %d links, want 2", len(r))
	}
	g := newReuseRig(topo, testProfile(), ClassMPI)
	intra := pathKey{src: 0, dst: 1, class: ClassMPI}  // node 0 -> node 0
	routed := pathKey{src: 0, dst: 7, class: ClassMPI} // node 0 -> node 3
	g.run(func() {
		g.send(0, 1, ClassMPI, 0)
		g.sleepUntil(1 * us)
		free := freeRecords(t, g.f)
		if len(free) != 1 || liveDoms(g.f) != 0 {
			t.Errorf("after the intra-node delivery: %d live, %d free; want 0 and 1", liveDoms(g.f), len(free))
			return
		}
		first := free[0]

		for i := 10; i < 13; i++ {
			g.send(0, 7, ClassMPI, i)
		}
		if d := domOf(g.f, routed); d != first {
			t.Errorf("routed key opened record %p, want the released intra-node record %p", d, first)
		}
		// 7.5 µs: the first routed message is delivered, the second is
		// being delivered and the third queues behind it.
		g.sleepUntil(7500 * time.Nanosecond)
		if domOf(g.f, routed) != first || first.flights.len() != 1 {
			t.Errorf("routed domain released early or its flights drained")
		}
		g.send(0, 1, ClassMPI, 1)
		if second := domOf(g.f, intra); second == nil || second == first {
			t.Errorf("intra-node key re-created on %p while the routed domain %p is busy", second, first)
		}

		g.sleepUntil(20 * us)
		if free := freeRecords(t, g.f); len(free) != 2 || liveDoms(g.f) != 0 {
			t.Errorf("after draining: %d live, %d free; want 0 and 2", liveDoms(g.f), len(free))
		}
		g.send(0, 1, ClassMPI, 2) // takes the routed record, released last
		if d := domOf(g.f, intra); d != first {
			t.Errorf("intra-node key opened %p, want the routed record %p", d, first)
		}
		g.sleepUntil(30 * us)
	})
	g.f.Close()
	g.check(t, []delivery{
		{1, 1, 0, 600 * time.Nanosecond},
		{7, 7, 10, 7 * us},
		{7, 7, 11, 8 * us},
		{1, 1, 1, 8100 * time.Nanosecond},
		{7, 7, 12, 9 * us},
		{1, 1, 2, 20600 * time.Nanosecond},
	})
	for _, li := range topo.routeOf(0, 3) {
		if n := g.f.links[li].srv.Stats().Uses; n != 3 {
			t.Errorf("link %d carried %d messages, want the 3 routed ones", li, n)
		}
	}
	if n := liveDoms(g.f); n != 0 {
		t.Errorf("%d domains live after Close", n)
	}
}

// TestDomainReuseZeroCostInline covers the ideal profile, where injDone
// delivers inline: the delivery-side idle check runs while the injection
// chain is still busy and must leave the record to injNext, which
// releases it once. A second key then reuses it, and both keys busy at
// once hold two distinct records.
func TestDomainReuseZeroCostInline(t *testing.T) {
	g := newReuseRig(NewTopology(2, 2), ProfileIdeal(), ClassGASPI)
	intra := pathKey{src: 0, dst: 1, class: ClassGASPI}
	inter := pathKey{src: 0, dst: 2, class: ClassGASPI}
	g.run(func() {
		g.send(0, 1, ClassGASPI, 0)
		g.clk.Sleep(time.Microsecond)
		free := freeRecords(t, g.f)
		if len(free) != 1 || liveDoms(g.f) != 0 {
			t.Errorf("after an inline delivery: %d live, %d free; want 0 and 1", liveDoms(g.f), len(free))
			return
		}
		g.send(0, 2, ClassGASPI, 1)
		if d := domOf(g.f, inter); d != free[0] {
			t.Errorf("inter-node key opened %p, want the released record %p", d, free[0])
		}
		g.send(0, 1, ClassGASPI, 2)
		g.send(0, 1, ClassGASPI, 3)
		if a, b := domOf(g.f, intra), domOf(g.f, inter); a == nil || a == b {
			t.Errorf("two busy keys share record %p", a)
		}
		g.clk.Sleep(time.Microsecond)
		if free := freeRecords(t, g.f); len(free) != 2 || liveDoms(g.f) != 0 {
			t.Errorf("after draining: %d live, %d free; want 0 and 2", liveDoms(g.f), len(free))
		}
	})
	g.f.Close()
	const us = time.Microsecond
	g.check(t, []delivery{{1, 1, 0, 0}, {2, 2, 1, us}, {1, 1, 2, us}, {1, 1, 3, us}})
}

// TestFaultDomainNeverReleased: a domain with a fault-plane stream keeps
// its record — and with it the per-domain draw counter — across idle
// periods, also when its failures surface through OnFailed; a domain the
// plan cannot touch on the same fabric is released as usual.
func TestFaultDomainNeverReleased(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	f.SetFaultPlan(FaultPlan{GASPIDrop: 1}, 7)
	failed, delivered := 0, 0
	f.Register(1, ClassGASPI, func(*Message) { t.Error("a dropped GASPI message was delivered") })
	f.Register(1, ClassMPI, func(*Message) { delivered++ })
	key := pathKey{src: 0, dst: 1, class: ClassGASPI}
	var held *dom
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 1; i <= 2; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 100, OnFailed: func() { failed++ }})
			clk.Sleep(time.Millisecond)
			d := domOf(f, key)
			if d == nil || (held != nil && d != held) {
				t.Errorf("after failure %d the fault domain is %p, want it kept (%p)", i, d, held)
				return
			}
			held = d
			if d.fault == nil || d.fault.seq != uint64(i) {
				t.Errorf("after failure %d: fault stream %+v, want %d draws", i, d.fault, i)
			}
		}
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 100})
		clk.Sleep(time.Millisecond)
	})
	wg.Wait()
	f.Close()
	if failed != 2 || delivered != 1 {
		t.Fatalf("failed %d, delivered %d; want 2 and 1", failed, delivered)
	}
	if d := domOf(f, pathKey{src: 0, dst: 1, class: ClassMPI}); d != nil {
		t.Errorf("fault-free MPI domain kept its record %p", d)
	}
	if n := len(freeRecords(t, f)); n != 1 {
		t.Errorf("%d free records, want the MPI domain's 1", n)
	}
}

// TestRecorderKeepsDomains: with a recorder installed no domain is
// released, so each key's flow ids continue one sequence from flowBase
// across idle periods and stay unique.
func TestRecorderKeepsDomains(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 2), testProfile())
	f.SetRecorder(&obs.Collector{Tracer: obs.NewTracer(4)})
	flows := make(map[pathKey][]int64)
	for r := Rank(0); r < 4; r++ {
		f.Register(r, ClassMPI, func(m *Message) {
			k := pathKey{src: m.Src, dst: m.Dst, class: m.Class}
			flows[k] = append(flows[k], m.Flow)
		})
	}
	a := pathKey{src: 0, dst: 1, class: ClassMPI}
	b := pathKey{src: 0, dst: 2, class: ClassMPI}
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for _, k := range []pathKey{a, a, b, a, b} {
			f.Send(&Message{Src: k.src, Dst: k.dst, Class: ClassMPI, Size: 100})
			clk.Sleep(time.Millisecond) // every domain idles between sends
		}
	})
	wg.Wait()
	f.Close()
	if liveDoms(f) != 2 || len(freeRecords(t, f)) != 0 {
		t.Fatalf("%d live and %d free domains under a recorder, want 2 and 0", liveDoms(f), len(freeRecords(t, f)))
	}
	seen := make(map[int64]bool)
	for k, ids := range flows {
		for i, id := range ids {
			if want := int64((flowBaseOf(k) + uint64(i+1)) &^ (1 << 63)); id != want {
				t.Errorf("key %+v message %d: flow id %d, want %d", k, i, id, want)
			}
			if seen[id] {
				t.Errorf("flow id %d issued twice", id)
			}
			seen[id] = true
		}
	}
	if len(flows[a]) != 3 || len(flows[b]) != 2 {
		t.Fatalf("delivered %d and %d, want 3 and 2", len(flows[a]), len(flows[b]))
	}
}

// DomainRecordBudget is the committed number of domain records a
// 1,024-rank, 10-round dissemination may allocate (TestDomainFootprint).
// Each round keeps 1,024 domains busy at once and uses keys no other
// round uses; released records serve the next round, so the job measures
// exactly 1,024 records, against 10,240 when every key kept its record
// for the fabric's lifetime. The budget leaves 25% headroom. Raising it is
// a memory regression and needs justification.
const DomainRecordBudget = 1280

// TestDomainFootprint is the domain-lifetime gate of scripts/ci.sh: a
// dissemination schedule (round k: rank r sends to r+2^k mod n), each
// round delivered before the next starts, must end with no live domain
// and allocate no more records than DomainRecordBudget.
func TestDomainFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("gates run without the race detector, like the allocation gates")
	}
	const ranks, rounds = 1024, 10
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(ranks/8, 8), ProfileOmniPath())
	done := clk.Parker()
	left := 0
	for r := Rank(0); r < ranks; r++ {
		f.Register(r, ClassMPI, func(*Message) {
			if left--; left == 0 {
				done.Unpark()
			}
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			left = ranks
			for r := 0; r < ranks; r++ {
				m := NewMessage()
				m.Src, m.Dst, m.Class, m.Size = Rank(r), Rank((r+1<<k)%ranks), ClassMPI, 8
				f.Send(m)
			}
			done.Park()
		}
	})
	wg.Wait()
	f.Close()
	if n := liveDoms(f); n != 0 {
		t.Fatalf("%d domains still live after every delivery", n)
	}
	records := len(freeRecords(t, f))
	t.Logf("%d ranks x %d rounds: %d domain records (budget %d)", ranks, rounds, records, DomainRecordBudget)
	if records > DomainRecordBudget {
		t.Fatalf("dissemination allocated %d domain records, budget is %d", records, DomainRecordBudget)
	}
}

// TestFifoFootprintUnderBacklog: a domain's pend and flights queues hold a
// backlog that never empties while a busy period runs. Their buffer must
// stay at a small multiple of that backlog, compacting the popped prefix
// in place, instead of growing with every message the busy period moves.
func TestFifoFootprintUnderBacklog(t *testing.T) {
	const backlog, pairs = 8, 10000
	var q fifo[int]
	for i := 0; i < backlog; i++ {
		q.push(i)
	}
	for i := backlog; i < backlog+pairs; i++ {
		q.push(i)
		if v := q.pop(); v != i-backlog {
			t.Fatalf("pop %d returned %d, want %d: the FIFO reordered", i-backlog, v, i-backlog)
		}
	}
	if q.len() != backlog {
		t.Fatalf("len = %d after balanced push/pop pairs, want %d", q.len(), backlog)
	}
	if c := cap(q.buf); c > 4*backlog {
		t.Fatalf("buffer holds %d slots for a backlog of %d after %d push/pop pairs: it grows with the busy period", c, backlog, pairs)
	}
}

// TestConcurrentReleaseAndReuse has every rank send to a rotating peer,
// two messages per key, each after the previous one was delivered: the
// handler wakes its sender, whose next Send on the same key races the
// delivery's release check on another host thread, while the other
// ranks, woken at the same instant, open and release their own domains.
// Under -race this checks that Send's count under the fabric lock is what
// decides the race. A rank has at most one message in flight, but its next
// Send may open a record while the handler that woke it still holds the
// previous one, so the job never needs more than two records per rank.
func TestConcurrentReleaseAndReuse(t *testing.T) {
	const ranks, perRank = 8, 200
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(4, 2), testProfile())
	wake := make([]*vclock.Parker, ranks)
	for i := range wake {
		wake[i] = clk.Parker()
	}
	got := make([][]int, ranks) // per source: payloads in delivery order
	for r := Rank(0); r < ranks; r++ {
		f.Register(r, ClassMPI, func(m *Message) {
			if m.Dst != r {
				t.Errorf("message for rank %d ran rank %d's handler", m.Dst, r)
			}
			got[m.Src] = append(got[m.Src], m.Payload.(int))
			wake[m.Src].Unpark()
		})
	}
	var wg sync.WaitGroup
	wg.Add(ranks)
	clk.Launch(ranks)(func(s int) {
		defer wg.Done()
		for i := 0; i < perRank; i++ {
			dst := Rank((s + 1 + (i/2)%(ranks-1)) % ranks)
			f.Send(&Message{Src: Rank(s), Dst: dst, Class: ClassMPI, Size: 64, Payload: i})
			wake[s].Park()
		}
		// A handler wakes its sender before the delivery's release check
		// runs; outlive every callback before the records are counted.
		clk.Sleep(time.Millisecond)
	})
	wg.Wait()
	f.Close()
	for s, ps := range got {
		if len(ps) != perRank {
			t.Fatalf("rank %d: %d of %d delivered", s, len(ps), perRank)
		}
		for i, p := range ps {
			if p != i {
				t.Fatalf("rank %d: delivery %d carried payload %d", s, i, p)
			}
		}
	}
	if n := liveDoms(f); n != 0 {
		t.Errorf("%d domains live after every delivery", n)
	}
	if n := len(freeRecords(t, f)); n > 2*ranks {
		t.Errorf("%d domain records for %d ranks with one message each in flight", n, ranks)
	}
}
