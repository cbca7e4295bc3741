package miniamr

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/memory"
)

var verifyParams = Params{
	Grid: [3]int{2, 2, 2}, Cells: 4, Vars: 3,
	Steps: 6, RefineEvery: 2, MaxLevel: 1, Radius: 0.6,
	Verify: true,
}

func TestLeavesCoverDomainExactly(t *testing.T) {
	p := verifyParams
	for epoch := 0; epoch < 4; epoch++ {
		leaves := p.Leaves(epoch)
		vol := 0.0
		seen := map[Leaf]bool{}
		for _, l := range leaves {
			if seen[l] {
				t.Fatalf("duplicate leaf %v", l)
			}
			seen[l] = true
			vol += 1.0 / float64(int(1)<<(3*l.L))
		}
		want := float64(p.Grid[0] * p.Grid[1] * p.Grid[2])
		if math.Abs(vol-want) > 1e-9 {
			t.Fatalf("epoch %d: leaf volume %v, want %v", epoch, vol, want)
		}
	}
}

func TestMeshRefinesNearObject(t *testing.T) {
	p := verifyParams
	base := p.Grid[0] * p.Grid[1] * p.Grid[2]
	for epoch := 0; epoch < 3; epoch++ {
		if n := len(p.Leaves(epoch)); n <= base {
			t.Fatalf("epoch %d: %d leaves, expected refinement beyond %d", epoch, n, base)
		}
	}
}

func TestTwoToOneBalance(t *testing.T) {
	p := verifyParams
	p.MaxLevel = 2
	for epoch := 0; epoch < 4; epoch++ {
		leaves := p.Leaves(epoch)
		set := map[Leaf]bool{}
		for _, l := range leaves {
			set[l] = true
		}
		for _, l := range leaves {
			for f := 0; f < 6; f++ {
				for _, nb := range p.faceNeighbours(l, f, set) {
					if d := nb.L - l.L; d < -1 || d > 1 {
						t.Fatalf("epoch %d: leaf %v has neighbour %v (Δlevel %d)", epoch, l, nb, d)
					}
				}
			}
		}
	}
}

func TestFaceCoverage(t *testing.T) {
	// Every non-boundary face must be covered by messages summing to a
	// full face worth of halo cells.
	p := verifyParams
	p.MaxLevel = 2
	for epoch := 0; epoch < 3; epoch++ {
		e := p.buildEpoch(epoch, 1)
		set := map[Leaf]bool{}
		for _, l := range e.Leaves {
			set[l] = true
		}
		cover := map[[2]any]int{}
		for _, m := range e.Inbound[0] {
			key := [2]any{m.Dst, m.Face}
			cover[key] += m.Elems // Elems is always in dst-face cells
		}
		full := p.Cells * p.Cells
		for _, l := range e.Leaves {
			for f := 0; f < 6; f++ {
				if len(p.faceNeighbours(l, f, set)) == 0 {
					continue
				}
				got := cover[[2]any{l, f}]
				if got != full {
					t.Fatalf("epoch %d: face (%v,%d) covered by %d cells, want %d",
						epoch, l, f, got, full)
				}
			}
		}
	}
}

func TestInboundOutboundConsistent(t *testing.T) {
	p := verifyParams
	for _, ranks := range []int{1, 3, 5} {
		e := p.buildEpoch(1, ranks)
		in, out := 0, 0
		for r := 0; r < ranks; r++ {
			in += len(e.Inbound[r])
			out += len(e.Outbound[r])
		}
		if in != out {
			t.Fatalf("ranks=%d: %d inbound vs %d outbound", ranks, in, out)
		}
		// Every message's tag is its place in its receiver's list, and
		// its sender holds the same message, tag included.
		for r := 0; r < ranks; r++ {
			for i, m := range e.Inbound[r] {
				if m.Tag != i {
					t.Fatalf("ranks=%d: Inbound[%d][%d] has Tag %d", ranks, r, i, m.Tag)
				}
			}
			for _, m := range e.Outbound[r] {
				dst := e.Inbound[e.Owner[m.Dst]]
				if m.Tag < 0 || m.Tag >= len(dst) || dst[m.Tag] != m {
					t.Fatalf("ranks=%d: Outbound[%d] entry %+v is not in its receiver's Inbound list", ranks, r, m)
				}
			}
		}
	}
}

// TestSlotBoundsInBothModes moves one offset of each kind (a received
// message, a sent message, and the receiver's offset of a sent message, as
// the agreement delivers it) so that its range leaves the logical buffer.
// Over timed segments of one message-wide slot each site must panic
// exactly as over Verify's full segments.
func TestSlotBoundsInBothModes(t *testing.T) {
	e := verifyParams.buildEpoch(1, 3)
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, site := range []struct {
		name string
		call func(a *app, pl *plan)
	}{
		{"receive", func(a *app, pl *plan) {
			pl.inOff[0] = e.InBytes[a.me] - a.p.msgBytes(pl.inRemote[0]) + 1
			a.recvBytes(pl, 0)
		}},
		{"send", func(a *app, pl *plan) {
			pl.outOff[0] = -1
			a.sendBytes(pl, 0)
		}},
		{"remote", func(a *app, pl *plan) {
			pr := e.Owner[pl.outRemote[0].Dst]
			rv := make([]int64, 2*len(pl.peersOut[pr])+len(pl.peersIn[pr]))
			rv[0] = int64(e.InBytes[pr] - a.p.msgBytes(pl.outRemote[0]) + 1)
			a.adopt(pl, pr, rv)
		}},
	} {
		var msgs [2]string
		for i, verify := range []bool{true, false} {
			a := &app{p: verifyParams, me: 1}
			a.p.Verify = verify
			pl := a.plan(e)
			if len(pl.inRemote) == 0 || len(pl.outRemote) == 0 {
				t.Fatal("rank 1 exchanges no remote messages")
			}
			// The buffers newApp creates for this one epoch.
			in, out, inW, outW := e.InBytes[a.me], e.OutBytes[a.me], 0, 0
			for _, m := range pl.inRemote {
				inW = max(inW, a.p.msgBytes(m))
			}
			for _, m := range pl.outRemote {
				outW = max(outW, a.p.msgBytes(m))
			}
			if verify {
				inW, outW = in, out
			}
			a.recvSeg = memory.NewTimedSegment(segRecv, in, inW)
			a.sendSeg = memory.NewTimedSegment(segSend, out, outW)
			// In range, every message's bytes come back at full length.
			last := len(pl.outRemote) - 1
			if n := len(a.sendBytes(pl, last)); n != a.p.msgBytes(pl.outRemote[last]) {
				t.Errorf("Verify=%v: send bytes of message %d: %d", verify, last, n)
			}
			if msgs[i] = panicOf(func() { site.call(a, pl) }); msgs[i] == "" {
				t.Errorf("%s, Verify=%v: an offset outside the logical buffer did not panic", site.name, verify)
			}
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: Verify panicked with %v, timed mode with %v", site.name, msgs[0], msgs[1])
		}
	}
}

func TestSerialDeterministicAndBounded(t *testing.T) {
	a := Serial(verifyParams)
	b := Serial(verifyParams)
	if len(a) != len(b) {
		t.Fatal("nondeterministic leaf count")
	}
	for l, va := range a {
		vb, ok := b[l]
		if !ok {
			t.Fatalf("leaf %v missing in second run", l)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("nondeterministic value at %v[%d]", l, i)
			}
			if math.IsNaN(va[i]) || math.IsInf(va[i], 0) {
				t.Fatalf("non-finite value at %v[%d]", l, i)
			}
		}
	}
}

// gatherRun executes one distributed variant on the given fabric profile and
// merges all ranks' blocks; the merged map is nil when every rank returned
// nil Blocks.
func gatherRun(t *testing.T, p Params, ranks, cores int, variant string, prof fabric.Profile) (map[Leaf][]float64, cluster.Result, time.Duration) {
	t.Helper()
	cfg := cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: cores,
		Profile: prof,
	}
	switch variant {
	case "tampi":
		cfg.WithTasking, cfg.WithTAMPI = true, true
	case "tagaspi":
		cfg.WithTasking, cfg.WithTAMPI, cfg.WithTAGASPI = true, true, true
	}
	cfg.TAMPIPoll = 5 * time.Microsecond
	cfg.TAGASPIPoll = 5 * time.Microsecond
	epochs := p.Epochs(ranks)
	var merged map[Leaf][]float64
	var refine time.Duration
	var mu sync.Mutex
	res := cluster.Run(cfg, func(env *cluster.Env) {
		var out Output
		switch variant {
		case "mpi":
			out = RunMPIOnly(env, p, epochs)
		case "tampi":
			out = RunTAMPI(env, p, epochs)
		case "tagaspi":
			out = RunTAGASPI(env, p, epochs)
		}
		mu.Lock()
		if out.Blocks != nil && merged == nil {
			merged = make(map[Leaf][]float64)
		}
		for l, v := range out.Blocks {
			merged[l] = v
		}
		refine += out.RefineTime
		mu.Unlock()
	})
	return merged, res, refine
}

func checkAgainstSerial(t *testing.T, got map[Leaf][]float64, p Params) {
	t.Helper()
	want := Serial(p)
	if len(got) != len(want) {
		t.Fatalf("got %d leaves, want %d", len(got), len(want))
	}
	for l, wv := range want {
		gv, ok := got[l]
		if !ok {
			t.Fatalf("missing leaf %v", l)
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("leaf %v cell %d: got %v, want %v", l, i, gv[i], wv[i])
			}
		}
	}
}

func TestMPIOnlyMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 5} {
		got, _, _ := gatherRun(t, verifyParams, ranks, 1, "mpi", fabric.ProfileIdeal())
		checkAgainstSerial(t, got, verifyParams)
	}
}

func TestTAMPIMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		got, _, _ := gatherRun(t, verifyParams, ranks, 4, "tampi", fabric.ProfileIdeal())
		checkAgainstSerial(t, got, verifyParams)
	}
}

func TestTAGASPIMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 3, 4} {
		got, _, _ := gatherRun(t, verifyParams, ranks, 4, "tagaspi", fabric.ProfileIdeal())
		checkAgainstSerial(t, got, verifyParams)
	}
}

func TestDeepRefinementMatchesSerial(t *testing.T) {
	p := verifyParams
	p.MaxLevel = 2
	p.Cells = 4
	p.Steps = 4
	got, _, _ := gatherRun(t, p, 3, 4, "tagaspi", fabric.ProfileIdeal())
	checkAgainstSerial(t, got, p)
}

// TestVerifyDoesNotChangeTheModel runs every variant with the real arithmetic
// and in the timed mode: both must model the same run (same times, traffic
// and tasks), and the timed mode must hold no cells. It runs on OmniPath
// because under the ideal profile every cost is zero, so a Sleep or Compute
// lost with the arithmetic would go unseen.
//
// Goroutines released at one virtual instant still run side by side on the
// host (DESIGN.md §11), so a hybrid run occasionally drifts by a few hundred
// nanoseconds on unchanged code, mostly under -race. A disagreeing pair is
// therefore rerun; a lost cost disagrees on every attempt.
func TestVerifyDoesNotChangeTheModel(t *testing.T) {
	type model struct {
		elapsed, refine    time.Duration
		fabric             fabric.Stats
		submitted, spawned int64
	}
	for _, v := range []struct {
		variant      string
		ranks, cores int
	}{{"mpi", 3, 1}, {"tampi", 3, 4}, {"tagaspi", 3, 4}} {
		run := func(verify bool) model {
			p := verifyParams
			p.Verify = verify
			blocks, res, refine := gatherRun(t, p, v.ranks, v.cores, v.variant, fabric.ProfileOmniPath())
			if (blocks != nil) != verify {
				t.Fatalf("%s Verify=%v: Output.Blocks non-nil = %v", v.variant, verify, blocks != nil)
			}
			m := model{elapsed: res.Elapsed, refine: refine, fabric: res.Fabric}
			for _, s := range res.Tasking {
				m.submitted += s.Submitted
				m.spawned += s.Spawned
			}
			return m
		}
		with, without := run(true), run(false)
		for attempt := 1; attempt < 3 && with != without; attempt++ {
			with, without = run(true), run(false)
		}
		if with != without {
			t.Errorf("%s: Verify=true modelled %+v, Verify=false %+v", v.variant, with, without)
		}
		if with.elapsed <= 0 || with.fabric.Messages == 0 {
			t.Errorf("%s: the run modelled nothing: %+v", v.variant, with)
		}
	}
}

func TestRefineTimeMeasured(t *testing.T) {
	p := verifyParams
	p.Verify = false
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
	}
	epochs := p.Epochs(2)
	var refine time.Duration
	var mu sync.Mutex
	res := cluster.Run(cfg, func(env *cluster.Env) {
		out := RunTAGASPI(env, p, epochs)
		mu.Lock()
		refine += out.RefineTime
		mu.Unlock()
	})
	if refine <= 0 {
		t.Fatal("refinement time not measured")
	}
	if refine >= 2*res.Elapsed {
		t.Fatalf("refine time %v implausibly large vs elapsed %v", refine, res.Elapsed)
	}
}

func TestWorkAccounting(t *testing.T) {
	p := verifyParams
	epochs := p.Epochs(1)
	w := Work(p, epochs)
	cells := float64(p.Cells * p.Cells * p.Cells * p.Vars)
	min := float64(p.Steps) * float64(p.Grid[0]*p.Grid[1]*p.Grid[2]) * cells
	if w < min {
		t.Fatalf("Work = %v below unrefined minimum %v", w, min)
	}
}

// Property: for random trajectories (varying radius/epoch), the mesh stays
// a valid 2:1-balanced cover.
func TestQuickMeshValidity(t *testing.T) {
	f := func(seed uint8) bool {
		p := verifyParams
		p.MaxLevel = 2
		p.Radius = 0.3 + float64(seed%16)*0.1
		epoch := int(seed) % 8
		leaves := p.Leaves(epoch)
		vol := 0.0
		set := map[Leaf]bool{}
		for _, l := range leaves {
			if set[l] {
				return false
			}
			set[l] = true
			vol += 1.0 / float64(int(1)<<(3*l.L))
		}
		if math.Abs(vol-float64(p.Grid[0]*p.Grid[1]*p.Grid[2])) > 1e-9 {
			return false
		}
		for _, l := range leaves {
			for f := 0; f < 6; f++ {
				for _, nb := range p.faceNeighbours(l, f, set) {
					if d := nb.L - l.L; d < -1 || d > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	p := verifyParams
	p.Cells = 3
	if err := p.Validate(); err == nil {
		t.Fatal("odd cells must fail")
	}
	p = verifyParams
	p.Vars = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero vars must fail")
	}
	if err := verifyParams.Validate(); err != nil {
		t.Fatal(err)
	}
}
