package fabric

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/memory/pooltest"
	"repro/internal/vclock"
)

// testProfile charges easily-checked round numbers: 1µs latency inter-node,
// no intra latency terms, 1 GB/s bandwidth (1 byte/ns), 0 overheads.
func testProfile() Profile {
	return Profile{
		Name:               "test",
		InterNodeLatency:   time.Microsecond,
		IntraNodeLatency:   100 * time.Nanosecond,
		InterNodeBandwidth: 1e9,
		IntraNodeBandwidth: 2e9,
		EagerThreshold:     16 << 10,
		RDMAEmulFactor:     1,
	}
}

func TestTopology(t *testing.T) {
	topo := NewTopology(4, 12)
	if topo.Ranks() != 48 {
		t.Fatalf("Ranks = %d, want 48", topo.Ranks())
	}
	if topo.NodeOf(0) != 0 || topo.NodeOf(11) != 0 || topo.NodeOf(12) != 1 || topo.NodeOf(47) != 3 {
		t.Fatal("NodeOf misassigns ranks")
	}
	if !topo.SameNode(0, 11) || topo.SameNode(11, 12) {
		t.Fatal("SameNode wrong")
	}
}

func TestTopologyInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopology(0, 4)
}

func TestPointToPointLatencyBandwidth(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	// Handlers are clock callbacks: they record into plain variables, read
	// once the goroutine whose park ran them has been joined.
	var at time.Duration
	f.Register(1, ClassMPI, func(m *Message) { at = clk.Now() })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		// 1000 bytes at 1 byte/ns: inject 1000ns, flight 1000ns, rx 1000ns.
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 1000})
		clk.Sleep(time.Hour) // keep the clock alive until delivery
	})
	wg.Wait()
	if want := 3 * time.Microsecond; at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestControlMessageSkipsBandwidth(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var at time.Duration
	f.Register(1, ClassMPI, func(m *Message) { at = clk.Now() })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 1 << 20, Control: true})
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	if at != time.Microsecond {
		t.Fatalf("control message delivered at %v, want 1µs (latency only)", at)
	}
}

func TestIntraNodeUsesIntraParams(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(1, 2), testProfile())
	var at time.Duration
	f.Register(1, ClassMPI, func(m *Message) { at = clk.Now() })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		// 2000 bytes at 2 byte/ns intra: inject 1000ns + 100ns latency;
		// no rx stage intra-node.
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 2000})
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	if want := 1100 * time.Nanosecond; at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestRDMAEmulationPenalty(t *testing.T) {
	prof := testProfile()
	prof.RDMAEmulated = true
	prof.RDMAEmulFactor = 2
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), prof)
	var at time.Duration
	f.Register(1, ClassGASPI, func(m *Message) { at = clk.Now() })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 1000})
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	// Emulated RDMA: inject 2000ns (bw halved), flight 2000ns, rx 2000ns.
	if want := 6 * time.Microsecond; at != want {
		t.Fatalf("emulated RDMA delivered at %v, want %v", at, want)
	}
}

func TestLaneOrderingUnderConcurrency(t *testing.T) {
	// Messages on one lane must arrive in posting order even when many
	// senders on other lanes compete for the NIC.
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var mu sync.Mutex
	var seq []int
	f.Register(1, ClassGASPI, func(m *Message) {
		mu.Lock()
		seq = append(seq, m.Payload.(int))
		mu.Unlock()
	})
	f.Register(1, ClassMPI, func(m *Message) {})
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Lane: 0, Size: 64, Payload: i})
		}
		clk.Sleep(time.Second)
	})
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 512})
		}
	})
	wg.Wait()
	if len(seq) != 100 {
		t.Fatalf("delivered %d, want 100", len(seq))
	}
	for i, v := range seq {
		if v != i {
			t.Fatalf("lane order violated at %d: %v", i, seq[:i+1])
		}
	}
}

func TestOnInjectedBeforeDelivery(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var injectedAt, deliveredAt time.Duration
	done := make(chan struct{})
	f.Register(1, ClassGASPI, func(m *Message) {
		deliveredAt = clk.Now()
		close(done)
	})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{
			Src: 0, Dst: 1, Class: ClassGASPI, Size: 1000,
			OnInjected: func() { injectedAt = clk.Now() },
		})
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	<-done
	if injectedAt != time.Microsecond {
		t.Fatalf("local completion at %v, want 1µs (injection time)", injectedAt)
	}
	if deliveredAt <= injectedAt {
		t.Fatalf("delivery (%v) must follow local completion (%v)", deliveredAt, injectedAt)
	}
}

func TestNICSerializesInjection(t *testing.T) {
	// Two messages from the same source to two destinations share the TX
	// port: total time reflects serialization of the injection stage.
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(3, 1), testProfile())
	var mu sync.Mutex
	arrivals := map[Rank]time.Duration{}
	for r := Rank(1); r <= 2; r++ {
		r := r
		f.Register(r, ClassMPI, func(m *Message) {
			mu.Lock()
			arrivals[r] = clk.Now()
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 1000})
		f.Send(&Message{Src: 0, Dst: 2, Class: ClassMPI, Size: 1000})
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	// First: inject [0,1µs], flight 1µs, rx 1µs → 3µs.
	// Second: inject [1µs,2µs] (serialized), flight → 3µs, rx → 4µs.
	a1, a2 := arrivals[1], arrivals[2]
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	if a1 != 3*time.Microsecond || a2 != 4*time.Microsecond {
		t.Fatalf("arrivals %v/%v, want 3µs/4µs", a1, a2)
	}
}

func TestPipelinedFlightOverlapsNextInjection(t *testing.T) {
	// On one lane, message i+1 injects while message i is in flight:
	// n messages of T inject time take n*T + flight + rx, not n*(T+flight+rx).
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	const n = 10
	var last time.Duration
	done := make(chan struct{})
	count := 0
	f.Register(1, ClassMPI, func(m *Message) {
		count++
		last = clk.Now()
		if count == n {
			close(done)
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 1000})
		}
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	<-done
	// Injections occupy [0,10µs]; last message: flight to 11µs, rx 12µs.
	if want := 12 * time.Microsecond; last != want {
		t.Fatalf("last delivery at %v, want %v (pipelined)", last, want)
	}
}

func TestStatsAndClose(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	delivered := 0
	f.Register(1, ClassMPI, func(m *Message) { delivered++ })
	f.Register(1, ClassGASPI, func(m *Message) { delivered++ })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 100})
		f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 200})
		clk.Sleep(time.Second)
	})
	wg.Wait()
	st := f.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByClass[ClassMPI] != 1 || st.ByClass[ClassGASPI] != 1 {
		t.Fatalf("per-class stats = %+v", st.ByClass)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	if tx := f.nicTx[f.topo.NodeOf(0)].Stats(); tx.Uses != 2 {
		t.Fatalf("tx uses = %d, want 2", tx.Uses)
	}
	f.Close()
	f.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Send after Close must panic")
		}
	}()
	f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI})
}

func TestSendInvalidRankPanics(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Send(&Message{Src: 0, Dst: 5, Class: ClassMPI})
}

// TestReleaseMark: a released Message refuses releaseMessage and Send.
func TestReleaseMark(t *testing.T) {
	f, m := New(vclock.NewVirtual(), NewTopology(2, 1), testProfile()), NewMessage()
	releaseMessage(m)
	pooltest.Panics(t, map[string]func(){
		"fabric: releaseMessage of a released Message": func() { releaseMessage(m) },
		"fabric: Send of a released Message":           func() { f.Send(m) },
	})
	pooltest.Size[Message](t, 136)
}

// Property: per-lane FIFO holds for any assignment of messages to lanes.
func TestQuickPerLaneFIFO(t *testing.T) {
	f := func(lanes []uint8) bool {
		if len(lanes) == 0 {
			return true
		}
		if len(lanes) > 200 {
			lanes = lanes[:200]
		}
		clk := vclock.NewVirtual()
		fb := New(clk, NewTopology(2, 1), testProfile())
		var mu sync.Mutex
		lastSeq := map[int]int{}
		ok := true
		fb.Register(1, ClassGASPI, func(m *Message) {
			mu.Lock()
			defer mu.Unlock()
			pair := m.Payload.([2]int)
			if pair[1] <= lastSeq[pair[0]] {
				ok = false
			}
			lastSeq[pair[0]] = pair[1]
		})
		var wg sync.WaitGroup
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			seqs := map[int]int{}
			for _, l := range lanes {
				lane := int(l % 4)
				seqs[lane]++
				fb.Send(&Message{
					Src: 0, Dst: 1, Class: ClassGASPI, Lane: lane,
					Size: 64, Payload: [2]int{lane, seqs[lane]},
				})
			}
			clk.Sleep(time.Second)
		})
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterer(t *testing.T) {
	j := NewJitterer(42, 0.5)
	base := time.Microsecond
	for i := 0; i < 1000; i++ {
		d := j.Apply(base)
		if d < base/2 || d > base*3/2 {
			t.Fatalf("jittered %v outside [0.5µs, 1.5µs]", d)
		}
	}
	// Zero magnitude: identity.
	j0 := NewJitterer(42, 0)
	if j0.Apply(base) != base {
		t.Fatal("zero jitter must be identity")
	}
	// Determinism: same seed, same sequence.
	a, b := NewJitterer(7, 0.3), NewJitterer(7, 0.3)
	for i := 0; i < 100; i++ {
		if a.Apply(base) != b.Apply(base) {
			t.Fatal("jitter not deterministic for equal seeds")
		}
	}
}

// TestJittererSeedsLazily: the constructor builds no generator state, and
// the draws are those of a math/rand generator seeded up front — a job
// makes one jitterer per rank and library and most never draw.
func TestJittererSeedsLazily(t *testing.T) {
	const seed, rel = 42, 0.25
	j := NewJitterer(seed, rel)
	if j.Apply(0) != 0 || j.src.out != nil {
		t.Fatal("a jitterer that has not drawn yet already holds generator state")
	}
	eager := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		d := time.Duration(1000 + i)
		want := time.Duration(float64(d) * (1 + rel*(2*eager.Float64()-1)))
		if got := j.Apply(d); got != want {
			t.Fatalf("draw %d: %v, an eagerly seeded generator gives %v", i, got, want)
		}
	}
	j0 := NewJitterer(seed, 0)
	for i := 0; i < 1000; i++ {
		j0.Apply(time.Microsecond)
	}
	if j0.src.out != nil {
		t.Fatal("a jitterer of magnitude 0 drew from its source")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{ProfileOmniPath(), ProfileInfiniBand()} {
		if p.Zero() {
			t.Fatalf("%s reports Zero", p.Name)
		}
		if p.InterNodeBandwidth <= 0 || p.CoreHz <= 0 || p.EagerThreshold <= 0 {
			t.Fatalf("%s has invalid parameters", p.Name)
		}
	}
	if !ProfileIdeal().Zero() {
		t.Fatal("ideal profile must report Zero")
	}
	op, ib := ProfileOmniPath(), ProfileInfiniBand()
	if !op.RDMAEmulated || ib.RDMAEmulated {
		t.Fatal("RDMA emulation flags must differ between machines (Fig. 13)")
	}
	if ib.MPIJitter <= op.MPIJitter {
		t.Fatal("CTE-AMD must model a noisier MPI stack than Marenostrum4")
	}
}

func BenchmarkFabricThroughput(b *testing.B) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var wg sync.WaitGroup
	n := 0
	f.Register(1, ClassMPI, func(m *Message) { n++ })
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 256})
		}
		clk.Sleep(time.Hour)
	})
	wg.Wait()
	if n != b.N {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
}

func TestSeedOfStableDistinctPositive(t *testing.T) {
	a := SeedOf("9", "TAGASPI/n4")
	if a != SeedOf("9", "TAGASPI/n4") {
		t.Fatal("SeedOf not stable")
	}
	if a <= 0 {
		t.Fatalf("SeedOf must be positive, got %d", a)
	}
	// Joining with '/' must keep part boundaries significant.
	if SeedOf("a", "b/c") == SeedOf("a/b", "c") {
		t.Fatal("SeedOf ignores part boundaries")
	}
	seen := map[int64]string{}
	for _, id := range []string{"", "a", "b", "aa", "ab", "ba", "TAGASPI/n1", "TAGASPI/n2"} {
		s := SeedOf("fig", id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SeedOf collision: %q and %q -> %d", prev, id, s)
		}
		seen[s] = id
	}
	// Jitterer chains built from derived seeds must themselves diverge.
	j1 := NewJitterer(SeedOf("fig", "p1"), 0.5)
	j2 := NewJitterer(SeedOf("fig", "p2"), 0.5)
	d := 1000 * time.Microsecond
	same := true
	for i := 0; i < 8; i++ {
		if j1.Apply(d) != j2.Apply(d) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct point ids produced identical jitter chains")
	}
}
