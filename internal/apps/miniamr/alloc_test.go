package miniamr

import (
	"runtime"
	"slices"
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

// TestVerifyHaloZeroAlloc is an allocation gate of scripts/ci.sh for the
// Verify kernels: packing a message into its send bytes and unpacking it
// from them works on the bytes in place, with no slice of values per
// message, and fills the halo exactly as the packed values do.
func TestVerifyHaloZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	p := verifyParams
	e := p.buildEpoch(1, 3)
	a := &app{p: p, me: 1}
	pl := a.plan(e)
	if len(pl.outRemote) == 0 {
		t.Fatal("rank 1 sends no remote message")
	}
	for _, m := range pl.outRemote {
		src, dst, want := p.newBlock(m.Src), p.newBlock(m.Dst), p.newBlock(m.Dst)
		p.initBlock(src)
		buf := make([]byte, p.msgBytes(m))
		if n := testing.AllocsPerRun(20, func() {
			a.pack(src, m, buf)
			a.unpack(dst, m, buf)
		}); n != 0 {
			t.Fatalf("message %v→%v face %d: a Verify pack and unpack allocate %v objects, want 0", m.Src, m.Dst, m.Face, n)
		}
		vals := make([]float64, m.Elems*p.Vars)
		p.packMsg(src, m, vals)
		p.unpackMsg(want, m, vals)
		if !slices.Equal(dst.cur, want.cur) {
			t.Fatalf("message %v→%v face %d: unpacking in place filled another halo", m.Src, m.Dst, m.Face)
		}
	}
}
