package memory

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/memory/pooltest"
)

// TestTakeSharesOnlyEqualBytes: a take shares the previous snapshot exactly
// when the buffer has its length and content.
func TestTakeSharesOnlyEqualBytes(t *testing.T) {
	var c SnapshotCache
	buf := []byte("payload")
	a := c.Take(buf)
	if b := c.Take(buf); b != a {
		t.Error("unchanged buffer took a fresh snapshot")
	}
	if b := c.Take(bytes.Clone(buf)); b != a {
		t.Error("equal bytes in another buffer took a fresh snapshot")
	}
	buf[6] = 'X'
	b := c.Take(buf)
	if b == a {
		t.Fatal("rewritten buffer shared the stale snapshot")
	}
	if string(a.Bytes()) != "payload" || string(b.Bytes()) != "payloaX" {
		t.Errorf("snapshots hold %q and %q", a.Bytes(), b.Bytes())
	}
	if d := c.Take(buf[:3]); d == b || string(d.Bytes()) != "pay" {
		t.Errorf("a prefix shared a longer snapshot or holds %q", d.Bytes())
	}
}

// TestSnapshotOutlivesTheCache: a message's reference keeps its snapshot
// intact after the cache has moved on and the buffer has been rewritten.
func TestSnapshotOutlivesTheCache(t *testing.T) {
	var c SnapshotCache
	buf := []byte{1, 2, 3}
	held := c.Take(buf)
	for i := 0; i < 8; i++ {
		buf[0] = byte(10 + i)
		c.Take(buf).Release()
	}
	if !bytes.Equal(held.Bytes(), []byte{1, 2, 3}) {
		t.Errorf("held snapshot reads %v after the cache moved on", held.Bytes())
	}
	held.Release()
}

// TestReleaseTooOftenPanics: once its last reference is gone a snapshot
// refuses Bytes and a further release (refs == 0 is its release mark), and
// the record does not grow.
func TestReleaseTooOftenPanics(t *testing.T) {
	var c SnapshotCache
	s := c.Take([]byte("x"))
	c.Take([]byte("y")).Release() // the cache drops its reference to s
	s.Release()
	pooltest.Panics(t, map[string]func(){
		"memory: Bytes of a released snapshot":                       func() { s.Bytes() },
		"memory: snapshot of 1 bytes released more often than taken": func() { s.Release() },
	})
	pooltest.Size[Snapshot](t, 32)
}

// TestConcurrentReleases mirrors the substrate: one goroutine takes
// snapshots (the clock's callbacks), and receivers on other goroutines
// read and release them. Run under -race.
func TestConcurrentReleases(t *testing.T) {
	const receivers, sends = 4, 2000
	ch := make(chan *Snapshot, receivers)
	var wg sync.WaitGroup
	wg.Add(receivers)
	for r := 0; r < receivers; r++ {
		go func() {
			defer wg.Done()
			for s := range ch {
				b := s.Bytes()
				if len(b) != 64 || bytes.Count(b, b[:1]) != len(b) {
					t.Errorf("snapshot changed while referenced: %v", b)
				}
				s.Release()
			}
		}()
	}
	var c SnapshotCache
	buf := make([]byte, 64)
	for i := 0; i < sends; i++ {
		if i%3 == 0 {
			for j := range buf {
				buf[j] = byte(i)
			}
		}
		ch <- c.Take(buf)
	}
	close(ch)
	wg.Wait()
}
