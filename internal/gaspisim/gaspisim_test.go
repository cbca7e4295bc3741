package gaspisim

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/vclock"
)

// must fails fast on simulator API errors in rank goroutines, which run
// outside the test goroutine and have no *testing.T to report to.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustCreate is SegmentCreate with the error turned into a panic.
func mustCreate(p *Proc, id SegmentID, size int) *memory.Segment {
	seg, err := p.SegmentCreate(id, size)
	must(err)
	return seg
}

func testProfile() fabric.Profile {
	return fabric.Profile{
		Name:               "test",
		InterNodeLatency:   time.Microsecond,
		IntraNodeLatency:   100 * time.Nanosecond,
		InterNodeBandwidth: 1e9,
		IntraNodeBandwidth: 2e9,
		EagerThreshold:     1024,
		RDMAEmulFactor:     1,
	}
}

// withWorld runs fn concurrently as every rank and waits for all.
func withWorld(ranks, queues int, fn func(p *Proc)) {
	withFaultyWorld(ranks, queues, fabric.FaultPlan{}, nil, fn)
}

func TestWriteNotifyDeliversDataThenNotification(t *testing.T) {
	withWorld(2, 2, func(p *Proc) {
		seg, err := p.SegmentCreate(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		switch p.Rank() {
		case 0:
			copy(seg.Bytes()[16:], "one-sided payload")
			if err := p.WriteNotify(0, 16, 1, 0, 32, 17, 10, 1, 0, "tag"); err != nil {
				t.Error(err)
			}
			p.Wait(0)
		case 1:
			id, ok := p.NotifyWaitSome(0, 10, 1, Block)
			if !ok || id != 10 {
				t.Errorf("NotifyWaitSome = %d, %v", id, ok)
			}
			// The GASPI guarantee: when the notification is visible the
			// data is already in the segment.
			if string(seg.Bytes()[32:49]) != "one-sided payload" {
				t.Errorf("segment = %q", seg.Bytes()[32:49])
			}
			v, set := p.NotifyReset(0, 10)
			if !set || v != 1 {
				t.Errorf("NotifyReset = %d, %v", v, set)
			}
			if _, set := p.NotifyReset(0, 10); set {
				t.Error("NotifyReset must clear the slot")
			}
		}
	})
}

func TestWriteWithoutNotify(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		seg := mustCreate(p, 0, 64)
		switch p.Rank() {
		case 0:
			copy(seg.Bytes(), "silent write")
			if err := p.Write(0, 0, 1, 0, 0, 12, 0, nil); err != nil {
				t.Error(err)
			}
			p.Wait(0)
			// Signal completion out of band for the test.
			must(p.Notify(1, 0, 0, 1, 0, nil))
			p.Wait(0)
		case 1:
			p.NotifyWaitSome(0, 0, 1, Block)
			if string(seg.Bytes()[:12]) != "silent write" {
				t.Errorf("segment = %q", seg.Bytes()[:12])
			}
		}
	})
}

func TestReadPullsRemoteData(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		seg := mustCreate(p, 0, 128)
		switch p.Rank() {
		case 0:
			// Wait for rank 1 to populate, then read it.
			p.NotifyWaitSome(0, 5, 1, Block)
			if err := p.Read(0, 0, 1, 0, 64, 9, 0, "read-tag"); err != nil {
				t.Error(err)
			}
			reqs := p.RequestWait(0, 8, Block)
			if len(reqs) != 1 || reqs[0].Tag != "read-tag" || !reqs[0].OK {
				t.Errorf("RequestWait = %+v", reqs)
			}
			if string(seg.Bytes()[:9]) != "pull me 9"[:9] {
				t.Errorf("read data = %q", seg.Bytes()[:9])
			}
		case 1:
			copy(seg.Bytes()[64:], "pull me 9")
			must(p.Notify(0, 0, 5, 1, 0, nil))
			p.Wait(0)
		}
	})
}

func TestWriteNotifyYieldsTwoLowLevelRequests(t *testing.T) {
	// §IV-D: a write+notify expands into two tagged low-level requests.
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		switch p.Rank() {
		case 0:
			must(p.WriteNotify(0, 0, 1, 0, 0, 8, 0, 1, 0, "wn"))
			var got []CompletedRequest
			for len(got) < 2 {
				got = append(got, p.RequestWait(0, 4, Block)...)
			}
			if len(got) != 2 {
				t.Fatalf("got %d completed requests, want 2", len(got))
			}
			for _, r := range got {
				if r.Tag != "wn" || !r.OK {
					t.Errorf("completed = %+v", r)
				}
			}
		case 1:
			p.NotifyWaitSome(0, 0, 1, Block)
		}
	})
}

func TestPlainWriteYieldsOneRequest(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		switch p.Rank() {
		case 0:
			must(p.Write(0, 0, 1, 0, 0, 8, 0, "w"))
			got := p.RequestWait(0, 4, Block)
			if len(got) != 1 || got[0].Tag != "w" {
				t.Fatalf("got %+v, want one request tagged w", got)
			}
			// Nothing else must surface.
			if extra := p.RequestWait(0, 4, Test); len(extra) != 0 {
				t.Fatalf("unexpected extra completions %+v", extra)
			}
		case 1:
			p.clk.Sleep(time.Millisecond)
		}
	})
}

func TestSameQueueSameTargetOrdering(t *testing.T) {
	// Writes to increasing offsets on one queue must apply in order: the
	// last write wins on an overlapping cell.
	const n = 64
	withWorld(2, 1, func(p *Proc) {
		seg := mustCreate(p, 0, 8)
		switch p.Rank() {
		case 0:
			src := mustCreate(p, 1, n)
			for i := 0; i < n; i++ {
				src.Bytes()[i] = byte(i + 1)
				must(p.Write(1, i, 1, 0, 0, 1, 0, nil))
			}
			must(p.Notify(1, 0, 0, 1, 0, nil))
			p.Wait(0)
		case 1:
			p.NotifyWaitSome(0, 0, 1, Block)
			if seg.Bytes()[0] != byte(n) {
				t.Errorf("cell = %d, want %d (last write must win)", seg.Bytes()[0], n)
			}
		}
	})
}

func TestNotificationAfterDataSameQueue(t *testing.T) {
	// A notify posted after a write on the same queue must not arrive
	// before the write's data.
	withWorld(2, 1, func(p *Proc) {
		seg := mustCreate(p, 0, 1024)
		switch p.Rank() {
		case 0:
			copy(seg.Bytes(), bytes.Repeat([]byte{0xAB}, 1024))
			must(p.Write(0, 0, 1, 0, 0, 1024, 0, nil))
			must(p.Notify(1, 0, 3, 7, 0, nil))
			p.Wait(0)
		case 1:
			p.NotifyWaitSome(0, 3, 1, Block)
			for i, b := range seg.Bytes() {
				if b != 0xAB {
					t.Fatalf("byte %d = %x before notification", i, b)
				}
			}
		}
	})
}

func TestQueuesAreIndependentResources(t *testing.T) {
	// Posting on distinct queues must not serialize on one resource.
	prof := testProfile()
	prof.RDMAOpOverhead = 10 * time.Microsecond
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), prof)
	w := NewWorld(fab, 4, 1)
	var wg sync.WaitGroup
	var oneQ, fourQ time.Duration
	runPosts := func(p *Proc, queues int) time.Duration {
		t0 := p.clk.Now()
		// A clock-aware wait: leaving the clock to block on a host
		// WaitGroup opens a window, between the last poster's exit and
		// this goroutine's return, in which nobody is registered and
		// virtual time runs on to the peer's one-second sleep.
		var left atomic.Int32
		left.Store(4)
		posted := p.clk.Parker()
		for c := 0; c < 4; c++ {
			p.clk.Go(func() {
				for i := 0; i < 4; i++ {
					must(p.Notify(1, 0, NotificationID(c*4+i), 1, c%queues, nil))
				}
				if left.Add(-1) == 0 {
					posted.Unpark()
				}
			})
		}
		posted.Park()
		for q := 0; q < queues; q++ {
			p.Wait(q)
		}
		return p.clk.Now() - t0
	}
	wg.Add(2)
	clk.Launch(2)(func(r int) {
		defer wg.Done()
		p := w.Proc(Rank(r))
		mustCreate(p, 0, 64)
		if r == 0 {
			oneQ = runPosts(p, 1)
			fourQ = runPosts(p, 4)
		} else {
			clk.Sleep(time.Second)
		}
	})
	wg.Wait()
	if fourQ >= oneQ {
		t.Fatalf("4 queues (%v) not faster than 1 queue (%v): queue resources not independent", fourQ, oneQ)
	}
}

func TestNotifyWaitSomeTimeout(t *testing.T) {
	withWorld(1, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		t0 := p.clk.Now()
		_, ok := p.NotifyWaitSome(0, 0, 8, 50*time.Microsecond)
		if ok {
			t.Error("no notification was sent; want timeout")
		}
		if d := p.clk.Now() - t0; d != 50*time.Microsecond {
			t.Errorf("timeout took %v, want 50µs", d)
		}
	})
}

func TestNotifyWaitSomeRange(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		switch p.Rank() {
		case 0:
			must(p.Notify(1, 0, 12, 99, 0, nil))
			p.Wait(0)
		case 1:
			// Waiting on [10, 20): id 12 must wake it.
			id, ok := p.NotifyWaitSome(0, 10, 10, Block)
			if !ok || id != 12 {
				t.Errorf("got id %d ok %v", id, ok)
			}
			v, _ := p.NotifyReset(0, 12)
			if v != 99 {
				t.Errorf("value = %d", v)
			}
			// Out-of-range slots must not be set.
			if _, ok := p.NotifyWaitSome(0, 0, 10, Test); ok {
				t.Error("unexpected notification below the range")
			}
		}
	})
}

func TestRequestWaitTestIsNonBlocking(t *testing.T) {
	withWorld(1, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		t0 := p.clk.Now()
		if got := p.RequestWait(0, 8, Test); len(got) != 0 {
			t.Errorf("got %+v from idle queue", got)
		}
		if d := p.clk.Now() - t0; d > time.Microsecond {
			t.Errorf("Test poll took %v", d)
		}
	})
}

func TestSubmitValidation(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		if p.Rank() != 0 {
			return
		}
		if err := p.Write(0, 0, 1, 0, 0, 8, 5, nil); err == nil {
			t.Error("out-of-range queue must fail")
		}
		if err := p.Write(3, 0, 1, 0, 0, 8, 0, nil); err == nil {
			t.Error("unknown local segment must fail")
		}
		if err := p.Write(0, 60, 1, 0, 0, 8, 0, nil); err == nil {
			t.Error("out-of-range local slice must fail")
		}
		if err := p.Write(0, 0, 5, 0, 0, 8, 0, nil); err == nil {
			t.Error("invalid remote rank must fail")
		}
	})
}

// TestReadLocalRangeCheckedAtPost: a read whose local range runs past its
// segment is refused by Submit, as a write's is, and posts nothing. It used
// to be accepted and panic when the response landed, inside a clock
// callback.
func TestReadLocalRangeCheckedAtPost(t *testing.T) {
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, 64)
		if p.Rank() != 0 {
			return
		}
		before := p.fab.Stats().Messages
		if err := p.Read(0, 60, 1, 0, 0, 8, 0, "r"); err == nil {
			t.Fatal("read into bytes past the local segment must fail")
		}
		if got := p.fab.Stats().Messages; got != before {
			t.Errorf("refused read reached the fabric (%d -> %d messages)", before, got)
		}
		if n := p.queues[0].outstanding; n != 0 {
			t.Errorf("refused read left %d outstanding requests", n)
		}
	})
}

func TestSegmentCreateDuplicate(t *testing.T) {
	withWorld(1, 1, func(p *Proc) {
		if _, err := p.SegmentCreate(0, 64); err != nil {
			t.Fatal(err)
		}
		if _, err := p.SegmentCreate(0, 64); err == nil {
			t.Fatal("duplicate segment id must fail")
		}
	})
}

// TestTimedSegmentTarget checks remote writes against a timed segment: one
// in range lands in the target's slot, and one past the logical size
// panics in deliver exactly as it does against a plain segment.
func TestTimedSegmentTarget(t *testing.T) {
	const size, width = 256, 16
	withWorld(2, 1, func(p *Proc) {
		seg, err := p.SegmentCreateTimed(0, size, width)
		must(err)
		switch p.Rank() {
		case 0:
			copy(seg.Bytes(), "timed slot write")
			must(p.WriteNotify(0, 200, 1, 0, 240, width, 0, 1, 0, nil))
			p.Wait(0)
		case 1:
			p.NotifyWaitSome(0, 0, 1, Block)
			if string(seg.Bytes()) != "timed slot write" {
				t.Errorf("slot = %q", seg.Bytes())
			}
		}
	})

	w := NewWorld(fabric.New(vclock.NewVirtual(), fabric.NewTopology(2, 1), testProfile()), 1, 1)
	timed, full := w.Proc(0), w.Proc(1)
	_, err := timed.SegmentCreateTimed(0, size, width)
	must(err)
	_, err = full.SegmentCreate(0, size)
	must(err)
	deliverPastEnd := func(p *Proc) (msg any) {
		defer func() { msg = recover() }()
		m := newGMsg()
		m.kind, m.seg, m.off = OpWrite, 0, size-4
		m.data = p.snap.Take(make([]byte, 8))
		fm := fabric.NewMessage()
		fm.Payload = m
		p.deliver(fm)
		return nil
	}
	tmsg, fmsg := deliverPastEnd(timed), deliverPastEnd(full)
	if tmsg == nil || tmsg != fmsg {
		t.Errorf("write past the logical size: timed target panicked with %v, plain target with %v", tmsg, fmsg)
	}
}

// Property: for random sequences of write_notify operations spread over
// queues, every notification eventually arrives with its exact payload
// written (value = checksum of the data).
func TestQuickWriteNotifyIntegrity(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%24) + 1
		type op struct {
			off   int
			size  int
			queue int
			data  []byte
		}
		ops := make([]op, k)
		off := 0
		for i := range ops {
			sz := 1 + rng.Intn(128)
			ops[i] = op{off: off, size: sz, queue: rng.Intn(3), data: make([]byte, sz)}
			rng.Read(ops[i].data)
			off += sz
		}
		total := off
		good := true
		var mu sync.Mutex
		withWorld(2, 3, func(p *Proc) {
			seg := mustCreate(p, 0, total)
			switch p.Rank() {
			case 0:
				src := mustCreate(p, 1, total)
				for i, o := range ops {
					copy(src.Bytes()[o.off:], o.data)
					must(p.WriteNotify(1, o.off, 1, 0, o.off, o.size,
						NotificationID(i), int64(o.size), o.queue, i))
				}
				for q := 0; q < 3; q++ {
					p.Wait(q)
				}
			case 1:
				for i := 0; i < k; i++ {
					id, ok := p.NotifyWaitSome(0, 0, k, Block)
					if !ok {
						mu.Lock()
						good = false
						mu.Unlock()
						return
					}
					v, _ := p.NotifyReset(0, id)
					o := ops[id]
					if v != int64(o.size) || !bytes.Equal(seg.Bytes()[o.off:o.off+o.size], o.data) {
						mu.Lock()
						good = false
						mu.Unlock()
						return
					}
					_ = i
				}
			}
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteNotify(b *testing.B) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), testProfile())
	w := NewWorld(fab, 2, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Launch(2)(func(r int) {
		defer wg.Done()
		p := w.Proc(Rank(r))
		mustCreate(p, 0, 4096)
		for i := 0; i < b.N; i++ {
			if r == 0 {
				must(p.WriteNotify(0, 0, 1, 0, 0, 1024, 0, 1, 0, nil))
				for got := 0; got < 2; {
					got += len(p.RequestWait(0, 4, Block))
				}
			} else {
				p.NotifyWaitSome(0, 0, 1, Block)
				p.NotifyReset(0, 0)
			}
		}
	})
	wg.Wait()
}
