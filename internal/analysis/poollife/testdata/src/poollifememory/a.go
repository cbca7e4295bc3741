// Package poollifememory proves poollife catches a use of a shared payload
// snapshot after its release against the real memory types: the last
// Release returns the snapshot to its pool, and the next Take may refill
// it with another buffer's bytes.
package poollifememory

import (
	"repro/internal/memory"
)

func useAfterRelease(c *memory.SnapshotCache, buf []byte) int {
	s := c.Take(buf)
	s.Release()
	return len(s.Bytes()) // want `\*memory\.Snapshot "s" used after Release released it to its pool on line 13`
}

func doubleRelease(c *memory.SnapshotCache, buf []byte) {
	s := c.Take(buf)
	s.Release()
	s.Release() // want `release of \*memory\.Snapshot "s": Release already consumed it on line 19`
}

func copyThenRelease(c *memory.SnapshotCache, buf, dst []byte) int {
	s := c.Take(buf)
	n := copy(dst, s.Bytes())
	s.Release() // ok: the last touch
	return n
}
