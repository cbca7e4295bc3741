package mpisim

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/vclock"
)

// testProfile: 1µs latency, 1 byte/ns bandwidth, small deterministic costs.
func testProfile() fabric.Profile {
	return fabric.Profile{
		Name:               "test",
		InterNodeLatency:   time.Microsecond,
		IntraNodeLatency:   100 * time.Nanosecond,
		InterNodeBandwidth: 1e9,
		IntraNodeBandwidth: 2e9,
		InjectOverhead:     0,
		MPIOpOverhead:      0,
		MPIMatchCost:       0,
		EagerThreshold:     1024,
		RDMAEmulFactor:     1,
	}
}

// withWorld runs fn concurrently as every rank of a fresh world and waits
// for all ranks to return.
func withWorld(nodes, rpn int, prof fabric.Profile, fn func(p *Proc)) *fabric.Fabric {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(nodes, rpn), prof)
	w := NewWorld(fab, 1)
	var wg sync.WaitGroup
	wg.Add(w.Size())
	clk.Launch(w.Size())(func(r int) {
		defer wg.Done()
		fn(w.Proc(Rank(r)))
	})
	wg.Wait()
	return fab
}

func TestEagerPingPong(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		msg := []byte("hello mpi")
		switch p.Rank() {
		case 0:
			p.Send(msg, 1, 7)
			buf := make([]byte, 16)
			st := p.Recv(buf, 1, 8)
			if string(buf[:st.Count]) != "world" {
				t.Errorf("rank 0 got %q", buf[:st.Count])
			}
		case 1:
			buf := make([]byte, 16)
			st := p.Recv(buf, 0, 7)
			if string(buf[:st.Count]) != "hello mpi" {
				t.Errorf("rank 1 got %q", buf[:st.Count])
			}
			p.Send([]byte("world"), 0, 8)
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	payload := make([]byte, 10000) // above the 1024 eager threshold
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	withWorld(2, 1, testProfile(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(payload, 1, 0)
		case 1:
			buf := make([]byte, len(payload))
			st := p.Recv(buf, 0, 0)
			if st.Count != len(payload) || !bytes.Equal(buf, payload) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
}

func TestRendezvousCostsExtraRoundTrip(t *testing.T) {
	// With zero software overheads, an eager message of size S arrives at
	// ~S/bw*2+lat; a rendezvous one pays an extra RTS/CTS round-trip first.
	prof := testProfile()
	var eagerT, rdvT time.Duration
	withWorld(2, 1, prof, func(p *Proc) {
		small := make([]byte, 1000) // eager
		large := make([]byte, 2000) // rendezvous (threshold 1024)
		clk := p.clk
		switch p.Rank() {
		case 0:
			p.Send(small, 1, 0)
			p.Send(large, 1, 1)
		case 1:
			t0 := clk.Now()
			p.Recv(make([]byte, 1000), 0, 0)
			eagerT = clk.Now() - t0
			t1 := clk.Now()
			p.Recv(make([]byte, 2000), 0, 1)
			rdvT = clk.Now() - t1
		}
	})
	// Eager 1000B: inject 1µs + flight 1µs + rx 1µs = 3µs.
	if eagerT != 3*time.Microsecond {
		t.Fatalf("eager took %v, want 3µs", eagerT)
	}
	// Rendezvous adds RTS (1µs flight) + CTS (1µs flight) before the data.
	if rdvT <= eagerT {
		t.Fatalf("rendezvous (%v) must cost more than eager (%v)", rdvT, eagerT)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	const n = 50
	withWorld(2, 1, testProfile(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				p.Send([]byte{byte(i)}, 1, 5)
			}
		case 1:
			for i := 0; i < n; i++ {
				var b [1]byte
				p.Recv(b[:], 0, 5)
				if int(b[0]) != i {
					t.Errorf("message %d overtaken by %d", i, b[0])
				}
			}
		}
	})
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// The send arrives before the receive is posted; matching must happen
	// from the unexpected queue.
	withWorld(2, 1, testProfile(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send([]byte("early"), 1, 3)
		case 1:
			p.clk.Sleep(100 * time.Microsecond) // let the message land first
			buf := make([]byte, 8)
			st := p.Recv(buf, 0, 3)
			if string(buf[:st.Count]) != "early" {
				t.Errorf("got %q", buf[:st.Count])
			}
		}
	})
}

func TestTestAndTestsome(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.clk.Sleep(10 * time.Microsecond)
			p.Send([]byte("a"), 1, 0)
			p.Send([]byte("b"), 1, 1)
		case 1:
			r0 := p.Irecv(make([]byte, 1), 0, 0)
			r1 := p.Irecv(make([]byte, 1), 0, 1)
			if done, _ := p.Test(r0); done {
				t.Error("Test reported done before any send")
			}
			for {
				b := p.BookTestsome()
				p.clk.Sleep(b.Wait)
				if idx := p.FinishTestsome(b, []*Request{r0, r1}, nil); len(idx) == 2 {
					break
				}
				p.clk.Sleep(time.Microsecond)
			}
		}
	})
}

func TestWaitallAndNilRequests(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send([]byte("a"), 1, 0)
			p.Send([]byte("b"), 1, 1)
		case 1:
			rs := []*Request{
				p.Irecv(make([]byte, 1), 0, 0),
				nil,
				p.Irecv(make([]byte, 1), 0, 1),
			}
			p.Waitall(rs)
			if !rs[0].done || !rs[2].done {
				t.Error("Waitall returned with incomplete requests")
			}
		}
	})
}

func TestNegativeUserTagPanics(t *testing.T) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), testProfile())
	w := NewWorld(fab, 1)
	// validTag fires before any clock use. -1 is no wildcard: Irecv
	// rejects it like any other negative tag.
	for name, post := range map[string]func(){
		"Isend(tag -5)": func() { w.Proc(0).Isend(nil, 1, -5) },
		"Irecv(tag -1)": func() { w.Proc(1).Irecv(make([]byte, 8), 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			post()
		}()
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var mu sync.Mutex
	var minExit, maxEnter time.Duration
	minExit = time.Hour
	withWorld(4, 1, testProfile(), func(p *Proc) {
		// Stagger the entries; no rank may exit before the last entry.
		d := time.Duration(p.Rank()) * 10 * time.Microsecond
		p.clk.Sleep(d)
		enter := p.clk.Now()
		p.Barrier()
		exit := p.clk.Now()
		mu.Lock()
		if enter > maxEnter {
			maxEnter = enter
		}
		if exit < minExit {
			minExit = exit
		}
		mu.Unlock()
	})
	if minExit < maxEnter {
		t.Fatalf("a rank exited the barrier (%v) before the last entered (%v)", minExit, maxEnter)
	}
}

func TestBarrierRepeated(t *testing.T) {
	withWorld(3, 1, testProfile(), func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Barrier()
		}
	})
}

func TestRMAPutFlushGet(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		seg := memory.NewSegment(0, 256)
		w := p.WinCreate(seg)
		p.Barrier()
		switch p.Rank() {
		case 0:
			data := []byte("rma payload")
			p.Put(w, data, 1, 64)
			p.Flush(w, 1)
			// After the flush, the data is remotely visible: notify via a
			// two-sided message (the §III idiom).
			p.Send(nil, 1, 9)
			// Read it back with a Get.
			back := make([]byte, len(data))
			req := p.Get(w, back, 1, 64)
			p.Wait(req)
			if !bytes.Equal(back, data) {
				t.Errorf("Get returned %q", back)
			}
		case 1:
			p.Recv(nil, 0, 9)
			if string(seg.Bytes()[64:75]) != "rma payload" {
				t.Errorf("window contents %q", seg.Bytes()[64:75])
			}
		}
		p.Barrier()
	})
}

func TestRMAFenceCompletesPuts(t *testing.T) {
	withWorld(3, 1, testProfile(), func(p *Proc) {
		seg := memory.NewSegment(0, 64)
		w := p.WinCreate(seg)
		p.Barrier()
		// Everyone puts its rank into slot rank of everyone else.
		for r := Rank(0); r < 3; r++ {
			if r != p.Rank() {
				p.Put(w, []byte{byte(p.Rank()) + 1}, r, int(p.Rank()))
			}
		}
		p.Fence(w)
		for r := 0; r < 3; r++ {
			if r == int(p.Rank()) {
				continue
			}
			if seg.Bytes()[r] != byte(r)+1 {
				t.Errorf("rank %d slot %d = %d", p.Rank(), r, seg.Bytes()[r])
			}
		}
	})
}

func TestFlushCostsRoundTrip(t *testing.T) {
	// A flush with no data must still cost at least 2x the one-way latency.
	var flushTime time.Duration
	withWorld(2, 1, testProfile(), func(p *Proc) {
		seg := memory.NewSegment(0, 64)
		w := p.WinCreate(seg)
		p.Barrier()
		if p.Rank() == 0 {
			t0 := p.clk.Now()
			p.Flush(w, 1)
			flushTime = p.clk.Now() - t0
		} else {
			p.clk.Sleep(100 * time.Microsecond)
		}
		p.Barrier()
	})
	if flushTime < 2*time.Microsecond {
		t.Fatalf("flush took %v, want >= 2µs (round-trip)", flushTime)
	}
}

func TestLockContentionGrowsWithThreads(t *testing.T) {
	// Charge-heavy profile: many concurrent Isend/Test calls from one rank
	// must queue on the library lock, so Waited grows superlinearly vs the
	// single-caller case. This is the §VI-C mechanism.
	prof := testProfile()
	prof.MPIOpOverhead = time.Microsecond
	measure := func(callers int) time.Duration {
		var waited time.Duration
		withWorld(2, 1, prof, func(p *Proc) {
			if p.Rank() != 0 {
				// Sink: absorb all messages.
				for i := 0; i < callers*20; i++ {
					p.Recv(make([]byte, 8), 0, 0)
				}
				return
			}
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				p.clk.Go(func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						r := p.Isend(make([]byte, 8), 1, 0)
						for done, _ := p.Test(r); !done; done, _ = p.Test(r) {
							p.clk.Sleep(time.Microsecond)
						}
					}
				})
			}
			p.clk.Unregister()
			wg.Wait()
			p.clk.Register()
			waited = p.LockStats().Waited
		})
		return waited
	}
	w1 := measure(1)
	w8 := measure(8)
	if w8 < 8*w1+time.Microsecond {
		t.Fatalf("lock wait with 8 callers (%v) not much larger than with 1 (%v)", w8, w1)
	}
}

// Property: a random all-to-all exchange delivers every payload intact to
// the right receiver under the right tag.
func TestQuickRandomExchange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		// plan[i][j]: payload i sends to j.
		var plan [n][n][]byte
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sz := 1 + rng.Intn(3000) // mixes eager and rendezvous
				b := make([]byte, sz)
				rng.Read(b)
				plan[i][j] = b
			}
		}
		okc := make(chan bool, n*n)
		withWorld(n, 1, testProfile(), func(p *Proc) {
			me := int(p.Rank())
			var reqs []*Request
			bufs := make([][]byte, n)
			for j := 0; j < n; j++ {
				reqs = append(reqs, p.Isend(plan[me][j], Rank(j), me*n+j))
			}
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, len(plan[i][me]))
				reqs = append(reqs, p.Irecv(bufs[i], Rank(i), i*n+me))
			}
			p.Waitall(reqs)
			for i := 0; i < n; i++ {
				okc <- bytes.Equal(bufs[i], plan[i][me])
			}
		})
		close(okc)
		for ok := range okc {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPingPong1K(b *testing.B) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), testProfile())
	w := NewWorld(fab, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Go(func() {
		defer wg.Done()
		p := w.Proc(0)
		buf := make([]byte, 1024)
		for i := 0; i < b.N; i++ {
			p.Send(buf, 1, 0)
			p.Recv(buf, 1, 1)
		}
	})
	clk.Go(func() {
		defer wg.Done()
		p := w.Proc(1)
		buf := make([]byte, 1024)
		for i := 0; i < b.N; i++ {
			p.Recv(buf, 0, 0)
			p.Send(buf, 0, 1)
		}
	})
	wg.Wait()
}
