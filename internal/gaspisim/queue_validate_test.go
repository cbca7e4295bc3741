package gaspisim

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// TestInvalidQueueIndexPanics pins GASPI_ERR_INV_QUEUE semantics on every
// queue-index entry point: an out-of-range queue id must fail immediately
// with a message naming the error, the offending id and the valid range —
// not a bare slice index panic from deep inside the simulator.
func TestInvalidQueueIndexPanics(t *testing.T) {
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), testProfile())
	w := NewWorld(fab, 2, 1)
	p := w.Proc(0)

	entryPoints := map[string]func(q int){
		"RequestWait": func(q int) { p.RequestWait(q, 1, Test) },
		"Wait":        func(q int) { p.Wait(q) },
		"Drain":       func(q int) { p.Drain(q) },
		"QueueState":  func(q int) { p.QueueState(q) },
		"QueueRepair": func(q int) { p.QueueRepair(q) },
	}
	mustPanicInvQueue := func(t *testing.T, name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected GASPI_ERR_INV_QUEUE panic, got none", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "GASPI_ERR_INV_QUEUE") {
				t.Fatalf("%s: panic = %v, want a GASPI_ERR_INV_QUEUE message", name, r)
			}
		}()
		fn()
	}
	for name, fn := range entryPoints {
		for _, q := range []int{-1, 2, 1 << 20} {
			mustPanicInvQueue(t, name, func() { fn(q) })
		}
	}

	// In-range ids on the non-blocking entry points keep working.
	p.RequestWait(1, 1, Test)
	p.QueueState(1)
}
