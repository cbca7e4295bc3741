package mpisim

import (
	"runtime"
	"testing"
	"time"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in.
var raceEnabled bool

// UnchangedBufferBytesPerSendBudget is the committed heap budget of
// TestUnchangedBufferSnapshotsOnce: bytes the job allocates per eager send
// of one unchanged 4 KiB buffer, receiver included, from empty pools. It
// reads 941 with shared payload snapshots (DESIGN.md §15), against 5,036
// when every message copied the buffer; the budget is 2x the current
// figure.
const UnchangedBufferBytesPerSendBudget = 1_900

// TestUnchangedBufferSnapshotsOnce is an allocation gate of scripts/ci.sh:
// 256 eager sends of one unchanged 4 KiB buffer, all queued unexpected at
// the receiver, must share one payload snapshot instead of holding 256.
func TestUnchangedBufferSnapshotsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const sends, size = 256, 4096
	prof := testProfile()
	prof.EagerThreshold = size
	var perSend float64
	withWorld(2, 1, prof, func(p *Proc) {
		buf := make([]byte, size)
		if p.Rank() == 1 {
			p.clk.Sleep(time.Millisecond) // every message arrives unexpected
			for i := 0; i < sends; i++ {
				p.Recv(buf, 0, i)
			}
			p.Send(nil, 0, sends)
			return
		}
		reqs := make([]*Request, sends)
		// Two collections empty every sync.Pool, so the reading does not
		// depend on what earlier tests left in the message pools.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range reqs {
			reqs[i] = p.Isend(buf, 1, i)
		}
		p.Waitall(reqs)
		p.Recv(nil, 1, sends) // the receiver has copied every message out
		runtime.ReadMemStats(&after)
		perSend = float64(after.TotalAlloc-before.TotalAlloc) / sends
	})
	t.Logf("%.0f bytes allocated per send (budget %d)", perSend, UnchangedBufferBytesPerSendBudget)
	if perSend > UnchangedBufferBytesPerSendBudget {
		t.Fatalf("mpisim allocated %.0f bytes per send of an unchanged buffer, budget %d: "+
			"does every message copy its payload again?", perSend, UnchangedBufferBytesPerSendBudget)
	}
}
