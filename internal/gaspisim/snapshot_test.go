package gaspisim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/memory/pooltest"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in.
var raceEnabled bool

// UnchangedBufferBytesPerWriteBudget is the committed heap budget of
// TestUnchangedBufferSnapshotsOnce: bytes the job allocates per write of
// one unchanged 4 KiB segment range, from empty pools. It reads 954 with
// shared payload snapshots (DESIGN.md §15), against 5,049 when every
// message copied the range; the budget is 2x the current figure.
const UnchangedBufferBytesPerWriteBudget = 1_900

// TestReleaseMark: a released gMsg refuses a second putGMsg, and a
// released booking a second putBooking and a send.
func TestReleaseMark(t *testing.T) {
	m := newGMsg()
	putGMsg(m)
	b := newBooking()
	putBooking(b)
	pooltest.Panics(t, map[string]func(){
		"gaspisim: putGMsg of a released gMsg":       func() { putGMsg(m) },
		"gaspisim: putBooking of a released booking": func() { putBooking(b) },
		"gaspisim: send of a released booking":       func() { b.send() },
	})
	pooltest.Size[gMsg](t, 120)
}

// TestUnchangedBufferSnapshotsOnce is an allocation gate of scripts/ci.sh:
// 256 writes of one unchanged 4 KiB range, all posted before the first is
// injected, must share one payload snapshot instead of holding 256.
func TestUnchangedBufferSnapshotsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const writes, size = 256, 4096
	var perWrite float64
	withWorld(2, 1, func(p *Proc) {
		mustCreate(p, 0, size)
		if p.Rank() == 1 {
			return
		}
		// Two collections empty every sync.Pool, so the reading does not
		// depend on what earlier tests left in the message pools.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			must(p.Write(0, 0, 1, 0, 0, size, 0, nil))
		}
		p.Wait(0)
		p.clk.Sleep(time.Millisecond) // every write has been delivered
		runtime.ReadMemStats(&after)
		perWrite = float64(after.TotalAlloc-before.TotalAlloc) / writes
		p.Drain(0)
	})
	t.Logf("%.0f bytes allocated per write (budget %d)", perWrite, UnchangedBufferBytesPerWriteBudget)
	if perWrite > UnchangedBufferBytesPerWriteBudget {
		t.Fatalf("gaspisim allocated %.0f bytes per write of an unchanged range, budget %d: "+
			"does every message copy its payload again?", perWrite, UnchangedBufferBytesPerWriteBudget)
	}
}
