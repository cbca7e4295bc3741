package miniamr

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; its instrumentation allocates, so the heap gate skips.
var raceEnabled bool

// HeapBytesPerMessageBudget is the committed heap budget of a timed
// TAGASPI miniAMR job (TestTimedHeapPerMessage): bytes the run allocates
// divided by fabric messages. It reads about 1,960 bytes/message with one
// message-wide slot per GASPI segment and one interior-wide slot per
// migration direction; when the segments held every remote message of an
// epoch and every migration transfer had its own buffer it read about
// 3,600. The budget is 1.2x the current figure.
const HeapBytesPerMessageBudget = 2_350

// TestTimedHeapPerMessage is the allocation gate of scripts/ci.sh for the
// timed miniAMR app: a TAGASPI job over 8 nodes, with a mesh rebuild and
// migration every 5 steps, must allocate no more than
// HeapBytesPerMessageBudget per fabric message.
func TestTimedHeapPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	p := Params{
		Grid: [3]int{4, 4, 2}, Cells: 8, Vars: 10,
		Steps: 20, RefineEvery: 5, MaxLevel: 1, Radius: 0.5,
	}
	g := cluster.Geometry{HybridRanks: 2, HybridCores: 4, Poll: 5 * time.Microsecond}
	cfg := Config(cluster.TAGASPI, 8, fabric.ProfileOmniPath(), g)
	epochs := p.Epochs(cfg.Nodes * cfg.RanksPerNode)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cluster.Run(cfg, func(env *cluster.Env) { RunTAGASPI(env, p, epochs) })
	runtime.ReadMemStats(&after)
	if res.Fabric.Messages == 0 {
		t.Fatal("the job sent no messages")
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Fabric.Messages)
	t.Logf("%d messages, %.0f heap bytes/message (budget %d)", res.Fabric.Messages, per, HeapBytesPerMessageBudget)
	if per > HeapBytesPerMessageBudget {
		t.Fatalf("heap allocated per message %.0f bytes exceeds budget %d: do the timed-mode "+
			"segments or migration buffers hold every message's bytes again?", per, HeapBytesPerMessageBudget)
	}
}
