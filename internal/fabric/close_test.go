package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestCloseDrainsEarlyExit is the early-teardown regression test: a rank
// that fires a burst of messages and exits immediately must not hang or
// panic the teardown. Close opens a drain window in which in-flight
// deliveries complete and their handlers may keep sending (the
// rendezvous-reply pattern of the protocol layers) — with every registered
// goroutine gone, it is Close's own counted park that lets the pending
// step events fire; it returns after the last accepted message retires.
// Close is idempotent, including concurrently and after the fabric is
// fully closed.
func TestCloseDrainsEarlyExit(t *testing.T) {
	const msgs = 64
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), testProfile())
	var replies atomic.Int64
	// Rank 1 answers every delivery with a reply sent from the delivery
	// callback itself — exactly what used to strand the teardown when the
	// sender had already exited.
	f.Register(1, ClassMPI, func(m *Message) {
		f.Send(&Message{Src: 1, Dst: 0, Class: ClassMPI, Size: 8})
	})
	f.Register(0, ClassMPI, func(m *Message) { replies.Add(1) })
	sent := make(chan struct{})
	clk.Go(func() {
		for i := 0; i < msgs; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 256})
		}
		close(sent)
		// Early exit: no wait for delivery, no final sleep. The burst is
		// still in flight when the last registered goroutine is gone.
	})
	<-sent

	// Concurrent idempotent Close: every call returns, exactly one tears
	// the fabric down, none panics.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Close()
		}()
	}
	wg.Wait()
	f.Close() // after full teardown: still a no-op

	if got := replies.Load(); got != msgs {
		t.Fatalf("drain window delivered %d handler replies, want %d", got, msgs)
	}
	if got := f.Stats().Messages; got != 2*msgs {
		t.Fatalf("fabric counted %d messages, want %d", got, 2*msgs)
	}

	// The fabric is closed: a late Send must fail loudly, not strand.
	defer func() {
		if recover() == nil {
			t.Fatal("Send after Close did not panic")
		}
	}()
	f.Send(&Message{Src: 0, Dst: 1, Class: ClassMPI, Size: 1})
}

// TestCloseNoTraffic closes a fabric that never carried a message, twice,
// from an unregistered goroutine.
func TestCloseNoTraffic(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 2), testProfile())
	f.Close()
	f.Close()
	if got := f.Stats().Messages; got != 0 {
		t.Fatalf("idle fabric counted %d messages", got)
	}
}

// TestCloseZeroCostInline covers the zero-delay path: under an ideal
// profile every Send arms an injection event due at once and the rest of
// the delivery cascades inline inside that callback. The sender exits
// without ever parking, so all 32 are still armed when Close runs and its
// counted park is what fires them.
func TestCloseZeroCostInline(t *testing.T) {
	clk := vclock.NewVirtual()
	f := New(clk, NewTopology(2, 1), ProfileIdeal())
	var got atomic.Int64
	f.Register(1, ClassGASPI, func(m *Message) { got.Add(1) })
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Class: ClassGASPI, Size: 64})
		}
	})
	wg.Wait()
	f.Close()
	if got.Load() != 32 {
		t.Fatalf("delivered %d, want 32", got.Load())
	}
	// Give the watchdog a moment's worth of confidence: repeated Close
	// after inline delivery stays a no-op.
	done := make(chan struct{})
	go func() { f.Close(); close(done) }()
	select {
	case <-done:
	//lint:ignore detlint host-side hang watchdog: a correct Close returns immediately
	case <-time.After(5 * time.Second):
		t.Fatal("repeated Close hung")
	}
}
