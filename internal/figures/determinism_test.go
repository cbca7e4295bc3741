package figures

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Regression test for same-instant order: the onready ablation at 32
// producers has timer ties (poll-task timers against fabric step events)
// that only resolve identically when every fabric step holds the (deadline,
// seq) place in the clock queue it drew when it was armed. The seed below is
// one whose tie pattern exposed a divergence; concurrent uninstrumented runs
// supply the scheduler noise that surfaced it under -race.
func TestOnreadyTraceStability(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism stress skipped in -short")
	}
	run := func() []byte {
		pt := producerConsumerPoint(32, true)
		cfg := pt.Cfg
		cfg.Seed = 4831456744167465630
		col := obs.NewCollector(2)
		cfg.Recorder = col
		cluster.Run(cfg, pt.Main)
		var buf bytes.Buffer
		if err := col.Tracer.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run()
	for i := 0; i < 8; i++ {
		done := make(chan struct{})
		for g := 0; g < 3; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				pt := producerConsumerPoint(32, false)
				cfg := pt.Cfg
				cfg.Seed = 999
				cluster.Run(cfg, pt.Main)
			}()
		}
		b := run()
		for g := 0; g < 3; g++ {
			<-done
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("trace diverged at iteration %d: fabric step events are not holding their (deadline, seq) place in the clock queue", i)
		}
	}
}
