package fabric

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// faultRun executes body on a fresh 2-node fabric with the given plan and
// seed, returning the fabric and the modelled finish time.
func faultRun(t *testing.T, plan FaultPlan, seed int64,
	register func(*Fabric, *vclock.VirtualClock), body func(*Fabric, *vclock.VirtualClock)) (*Fabric, time.Duration) {
	t.Helper()
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	if plan.Enabled() {
		f.SetFaultPlan(plan, seed)
	}
	register(f, clk)
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		body(f, clk)
	})
	wg.Wait()
	return f, clk.Now()
}

func TestFaultPlanZeroValueDisabled(t *testing.T) {
	var fp FaultPlan
	if fp.Enabled() {
		t.Fatal("zero FaultPlan must be disabled")
	}
	fp.MPI.Drop = 0.5
	if !fp.Enabled() {
		t.Fatal("Drop > 0 must enable the plan")
	}
	fp = FaultPlan{Outages: []Outage{{Link: Link{-1, -1}, Start: 0, End: time.Microsecond}}}
	if !fp.Enabled() {
		t.Fatal("an outage must enable the plan")
	}
	// Jitter without a spike cannot fault.
	fp = FaultPlan{GASPI: FaultRates{Jitter: 1}}
	if fp.Enabled() {
		t.Fatal("jitter without a spike duration must not enable the plan")
	}
}

func TestFaultSurfacesViaOnFailed(t *testing.T) {
	plan := FaultPlan{GASPI: FaultRates{Drop: 1}}
	var failed, injected, delivered atomic.Int64
	f, _ := faultRun(t, plan, 7,
		func(f *Fabric, clk *vclock.VirtualClock) {
			f.Register(1, ClassGASPI, func(m *Message) { delivered.Add(1) })
		},
		func(f *Fabric, clk *vclock.VirtualClock) {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 100,
				OnInjected: func() { injected.Add(1) },
				OnFailed:   func() { failed.Add(1) },
			})
			clk.Sleep(time.Millisecond)
		})
	if failed.Load() != 1 || injected.Load() != 0 || delivered.Load() != 0 {
		t.Fatalf("failed=%d injected=%d delivered=%d, want 1/0/0",
			failed.Load(), injected.Load(), delivered.Load())
	}
	if got := f.Stats().Faults; got != 1 {
		t.Fatalf("Stats.Faults = %d, want 1", got)
	}
}

func TestTransparentRetransmitDeliversInOrder(t *testing.T) {
	const n = 200
	plan := FaultPlan{MPI: FaultRates{Drop: 0.3}, RetransmitDelay: time.Microsecond}
	var mu sync.Mutex
	var order []int
	var last time.Duration
	send := func(f *Fabric, clk *vclock.VirtualClock) {
		for i := 0; i < n; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 64, Payload: i})
		}
		clk.Sleep(time.Second)
	}
	reg := func(f *Fabric, clk *vclock.VirtualClock) {
		f.Register(1, ClassMPI, func(m *Message) {
			mu.Lock()
			order = append(order, m.Payload.(int))
			last = clk.Now()
			mu.Unlock()
		})
	}
	f, _ := faultRun(t, plan, 11, reg, send)
	if len(order) != n {
		t.Fatalf("delivered %d/%d messages", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: transparent retransmission broke FIFO", i, v)
		}
	}
	if f.Stats().Faults == 0 {
		t.Fatal("Drop=0.3 over 200 messages injected no fault")
	}
	faultyLast := last
	order, last = nil, 0
	faultRun(t, FaultPlan{}, 11, reg, send)
	if faultyLast <= last {
		t.Fatalf("faulty run finished delivery at %v, not later than clean run (%v)", faultyLast, last)
	}
}

func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{
		MPI:   FaultRates{Drop: 0.25, Jitter: 0.2, Spike: 10 * time.Microsecond},
		GASPI: FaultRates{Drop: 0.25},
	}
	run := func(seed int64) (int64, time.Duration) {
		var fails atomic.Int64
		f, end := faultRun(t, plan, seed,
			func(f *Fabric, clk *vclock.VirtualClock) {
				f.Register(1, ClassMPI, func(m *Message) {})
				f.Register(1, ClassGASPI, func(m *Message) {})
			},
			func(f *Fabric, clk *vclock.VirtualClock) {
				for i := 0; i < 100; i++ {
					f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 128})
					f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 128,
						OnFailed: func() { fails.Add(1) }})
				}
				clk.Sleep(time.Second)
			})
		return f.Stats().Faults ^ fails.Load()<<32, end
	}
	fa, ea := run(42)
	fb, eb := run(42)
	if fa != fb || ea != eb {
		t.Fatalf("same seed diverged: faults %d vs %d, elapsed %v vs %v", fa, fb, ea, eb)
	}
	fc, _ := run(43)
	if fa == fc {
		t.Log("note: different seeds produced identical fault patterns (possible but unlikely)")
	}
}

func TestOutageDelaysDeliveryUntilRecovery(t *testing.T) {
	out := Outage{Link: Link{-1, -1}, Start: 0, End: 200 * time.Microsecond}
	plan := FaultPlan{Outages: []Outage{out}, RetransmitDelay: 5 * time.Microsecond}
	var at time.Duration
	_, _ = faultRun(t, plan, 3,
		func(f *Fabric, clk *vclock.VirtualClock) {
			f.Register(1, ClassMPI, func(m *Message) { at = clk.Now() })
		},
		func(f *Fabric, clk *vclock.VirtualClock) {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 100})
			clk.Sleep(time.Second)
		})
	if at < out.End {
		t.Fatalf("delivered at %v, inside the outage window ending %v", at, out.End)
	}
	if at > out.End+time.Millisecond {
		t.Fatalf("delivered at %v, long after recovery at %v", at, out.End)
	}
}

func TestJitterSpikeDelaysFlight(t *testing.T) {
	plan := FaultPlan{GASPI: FaultRates{Jitter: 1, Spike: 50 * time.Microsecond}}
	reg := func(at *time.Duration) func(*Fabric, *vclock.VirtualClock) {
		return func(f *Fabric, clk *vclock.VirtualClock) {
			f.Register(1, ClassGASPI, func(m *Message) { *at = clk.Now() })
		}
	}
	body := func(f *Fabric, clk *vclock.VirtualClock) {
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 100})
		clk.Sleep(time.Second)
	}
	var spiked, clean time.Duration
	faultRun(t, plan, 5, reg(&spiked), body)
	faultRun(t, FaultPlan{}, 5, reg(&clean), body)
	if d := spiked - clean; d != plan.GASPI.Spike {
		t.Fatalf("jitter hit delayed delivery by %v, want exactly %v", d, plan.GASPI.Spike)
	}
}

func TestIntraNodeTrafficNeverFaults(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(1, 2), testProfile())
	f.SetFaultPlan(FaultPlan{
		GASPI:   FaultRates{Drop: 1},
		Outages: []Outage{{Link: Link{-1, -1}, Start: 0, End: time.Hour}},
	}, 1)
	var delivered atomic.Int64
	f.Register(1, ClassGASPI, func(m *Message) { delivered.Add(1) })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 64,
			OnFailed: func() { t.Error("intra-node message failed") }})
		clk.Sleep(time.Millisecond)
	})
	wg.Wait()
	if delivered.Load() != 1 || f.Stats().Faults != 0 {
		t.Fatalf("delivered=%d faults=%d, want 1 and 0", delivered.Load(), f.Stats().Faults)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	for name, plan := range map[string]FaultPlan{
		"mpi-total-drop": {MPI: FaultRates{Drop: 1}},
		"rate-above-one": {GASPI: FaultRates{Drop: 1.5}},
		// Regression: NaN rates passed the range check, enabling a plan
		// that never injected anything.
		"nan-drop":     {GASPI: FaultRates{Drop: math.NaN()}},
		"nan-jitter":   {MPI: FaultRates{Jitter: math.NaN(), Spike: time.Microsecond}},
		"empty-outage": {Outages: []Outage{{Link: Link{-1, -1}, Start: time.Second, End: time.Second}}},
		// Regression: a negative Spike used to slip through validation and
		// subtract flight latency, scheduling a delivery step before the
		// current instant.
		"negative-mpi-spike":   {MPI: FaultRates{Jitter: 0.5, Spike: -time.Microsecond}},
		"negative-gaspi-spike": {GASPI: FaultRates{Jitter: 1, Spike: -time.Nanosecond}},
		// Regression: out-of-range Link selectors used to silently match
		// nothing, turning the restriction or outage into a no-op.
		"oob-links-selector":  {MPI: FaultRates{Drop: 0.1}, Links: []Link{{SrcNode: 5, DstNode: AnyNode}}},
		"oob-outage-selector": {Outages: []Outage{{Link: Link{SrcNode: 0, DstNode: 9}, Start: 0, End: time.Second}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetFaultPlan accepted an invalid plan", name)
				}
			}()
			clk := vclock.NewVirtual()
			New(clk, NewTopology(2, 1), testProfile()).SetFaultPlan(plan, 1)
		}()
	}
}

// TestSelectorRangeFollowsTopology pins the vertex-id space selectors are
// validated against: switch vertices of a shaped topology are legal
// selector targets, ids past the last switch are not.
func TestSelectorRangeFollowsTopology(t *testing.T) {
	clk := vclock.NewVirtual()
	// 8-node fat-tree: 11 vertices (8 nodes, 2 leaves, 1 spine).
	f := New(clk, NewFatTreeTopology(8, 1), testProfile())
	// Leaf 0 (vertex 8) to the spine (vertex 10) is a real link.
	f.SetFaultPlan(FaultPlan{
		Outages: []Outage{{Link: Link{SrcNode: 8, DstNode: 10}, Start: 0, End: time.Microsecond}},
	}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("selector naming vertex 11 on an 11-vertex topology must panic")
		}
	}()
	f.SetFaultPlan(FaultPlan{
		Outages: []Outage{{Link: Link{SrcNode: 11, DstNode: AnyNode}, Start: 0, End: time.Microsecond}},
	}, 1)
}

// TestAnyLinkWildcard pins the Link selector semantics the godoc warns
// about: AnyLink matches every pair, the zero value only 0->0.
func TestAnyLinkWildcard(t *testing.T) {
	any := AnyLink()
	for _, pair := range [][2]int{{0, 0}, {0, 1}, {3, 7}, {12, 4}} {
		if !any.matches(pair[0], pair[1]) {
			t.Errorf("AnyLink().matches(%d, %d) = false, want true", pair[0], pair[1])
		}
	}
	var zero Link
	if !zero.matches(0, 0) {
		t.Error("Link{}.matches(0, 0) = false, want true")
	}
	if zero.matches(0, 1) || zero.matches(1, 0) {
		t.Error("zero-value Link matched a non-0->0 pair; it must select only 0->0")
	}
}

// TestInnerLinkOutageSeversCrossingRoutes drives two MPI streams over a
// 4-node ring with the inner link 1->2 down until 200µs: the route
// 0->1->2 crosses the dead link, so its delivery converges by transparent
// retransmission only after recovery; the route 3->2 does not cross it
// and delivers immediately. This is the shaped-topology contract of the
// fault plane — selectors apply to the individual links of a route.
func TestInnerLinkOutageSeversCrossingRoutes(t *testing.T) {
	out := Outage{Link: Link{SrcNode: 1, DstNode: 2}, Start: 0, End: 200 * time.Microsecond}
	clk := vclock.NewVirtual()
	f := New(clk, NewRingTopology(4, 1), testProfile())
	f.SetFaultPlan(FaultPlan{Outages: []Outage{out}, RetransmitDelay: 5 * time.Microsecond}, 3)
	var crossedAt, cleanAt time.Duration
	f.Register(2, ClassMPI, func(m *Message) {
		if m.Payload.(int) == 0 {
			crossedAt = clk.Now()
		} else {
			cleanAt = clk.Now()
		}
	})
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 2, Class: ClassMPI, Size: 100, Payload: 0})
		clk.Sleep(time.Second)
	})
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 3, Dst: 2, Class: ClassMPI, Size: 100, Payload: 1})
		clk.Sleep(time.Second)
	})
	wg.Wait()
	if crossedAt < out.End {
		t.Fatalf("route crossing the dead link delivered at %v, inside the outage ending %v",
			crossedAt, out.End)
	}
	if crossedAt > out.End+time.Millisecond {
		t.Fatalf("crossing route delivered at %v, long after recovery at %v", crossedAt, out.End)
	}
	if cleanAt >= out.End {
		t.Fatalf("route avoiding the dead link delivered at %v, blocked by an outage it never crosses",
			cleanAt)
	}
	if f.Stats().Faults == 0 {
		t.Fatal("no fault recorded while the crossing route retransmitted through the outage")
	}
}
