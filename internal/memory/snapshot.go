package memory

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable, reference-counted copy of a send buffer, taken
// at the operation's local completion (DESIGN.md §15). Every message that
// carries payload bytes holds one reference and drops it with Release after
// its last copy out; the sending process's SnapshotCache holds one more
// while the snapshot is its most recent. Nobody writes the bytes while a
// reference is held, so messages whose buffers held the same bytes at
// local completion share one snapshot. A snapshot with no reference left
// is released: Bytes and Release panic on it (DESIGN.md §6).
type Snapshot struct {
	b    []byte
	refs atomic.Int32 // atomic: a receiving rank's goroutine may release
}

// snapshotPool recycles snapshots together with their backing arrays, so a
// buffer whose content changes between sends still allocates nothing in
// steady state.
var snapshotPool = sync.Pool{New: func() any { return new(Snapshot) }}

// Bytes returns the snapshot's content. The caller must not modify it.
func (s *Snapshot) Bytes() []byte {
	if s.refs.Load() <= 0 {
		panic("memory: Bytes of a released snapshot")
	}
	return s.b
}

// Release drops one reference; the last one returns s to its pool.
//
//tagalint:hotpath
func (s *Snapshot) Release() {
	switch n := s.refs.Add(-1); {
	case n == 0:
		snapshotPool.Put(s)
	case n < 0:
		panic(fmt.Sprintf("memory: snapshot of %d bytes released more often than taken", len(s.b)))
	}
}

// SnapshotCache is one sending process's most recent snapshot. The zero
// value is ready to use. It is not safe for concurrent use: its callers
// take snapshots only inside clock callbacks (a message's local-completion
// hook, or a delivery handler answering a read), which the virtual clock
// runs one at a time.
type SnapshotCache struct {
	last *Snapshot
}

// Take returns a snapshot of buf's current bytes holding one reference for
// the caller. When the process's most recent snapshot has the same length
// and content it is shared; otherwise Take copies buf into a pooled
// snapshot, which becomes the most recent.
//
//tagalint:hotpath
func (c *SnapshotCache) Take(buf []byte) *Snapshot {
	if s := c.last; s != nil && bytes.Equal(s.b, buf) {
		s.refs.Add(1)
		return s
	}
	s := snapshotPool.Get().(*Snapshot)
	s.b = append(s.b[:0], buf...)
	s.refs.Store(2) // the caller's reference and the cache's
	if c.last != nil {
		c.last.Release()
	}
	c.last = s
	return s
}
