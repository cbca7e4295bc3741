package streaming

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
)

func idealCfg(nodes, rpn, cores int, tampi, tagaspi bool) cluster.Config {
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: rpn, CoresPerRank: cores,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: tampi || tagaspi,
		WithTAMPI:   tampi, WithTAGASPI: tagaspi,
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond,
	}
	return cfg
}

var verifyParams = Params{Chunks: 6, ChunkElems: 96, BlockSize: 16, Verify: true}

// runAndSum runs a variant and returns the checksum accumulated by the
// last pipeline stage.
func runAndSum(cfg cluster.Config, p Params, variant string) float64 {
	var mu sync.Mutex
	total := 0.0
	cluster.Run(cfg, func(env *cluster.Env) {
		var get func() float64
		switch variant {
		case "mpi":
			s := RunMPIOnly(env, p)
			get = func() float64 { return s }
		case "tampi":
			get = RunTAMPI(env, p)
		case "tagaspi":
			get = RunTAGASPI(env, p)
		}
		if env.RT != nil {
			env.RT.TaskWait()
		}
		mu.Lock()
		total += get()
		mu.Unlock()
	})
	return total
}

func TestExpectedChecksumSane(t *testing.T) {
	p := Params{Chunks: 2, ChunkElems: 4, BlockSize: 2, Verify: true}
	// nodes=2: stage 0 generates, stage 1 applies f1 and sums.
	want := 0.0
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			want += stageFn(1, gen(c, i))
		}
	}
	if got := ExpectedChecksum(p, 2); got != want {
		t.Fatalf("ExpectedChecksum = %v, want %v", got, want)
	}
}

func TestMPIOnlyChecksum(t *testing.T) {
	for _, geo := range [][2]int{{2, 1}, {3, 2}, {4, 2}} {
		nodes, rpn := geo[0], geo[1]
		got := runAndSum(idealCfg(nodes, rpn, 1, false, false), verifyParams, "mpi")
		want := ExpectedChecksum(verifyParams, nodes)
		if got != want {
			t.Fatalf("nodes=%d rpn=%d: checksum %v, want %v", nodes, rpn, got, want)
		}
	}
}

func TestTAMPIChecksum(t *testing.T) {
	for _, geo := range [][2]int{{2, 1}, {3, 2}} {
		nodes, rpn := geo[0], geo[1]
		got := runAndSum(idealCfg(nodes, rpn, 4, true, false), verifyParams, "tampi")
		want := ExpectedChecksum(verifyParams, nodes)
		if got != want {
			t.Fatalf("nodes=%d rpn=%d: checksum %v, want %v", nodes, rpn, got, want)
		}
	}
}

func TestTAGASPIChecksum(t *testing.T) {
	for _, geo := range [][2]int{{2, 1}, {3, 2}, {4, 1}} {
		nodes, rpn := geo[0], geo[1]
		got := runAndSum(idealCfg(nodes, rpn, 4, false, true), verifyParams, "tagaspi")
		want := ExpectedChecksum(verifyParams, nodes)
		if got != want {
			t.Fatalf("nodes=%d rpn=%d: checksum %v, want %v", nodes, rpn, got, want)
		}
	}
}

func TestTAGASPIChecksumUnderCostedProfile(t *testing.T) {
	p := verifyParams
	cfg := idealCfg(3, 1, 4, false, true)
	cfg.Profile = fabric.ProfileInfiniBand()
	got := runAndSum(cfg, p, "tagaspi")
	if want := ExpectedChecksum(p, 3); got != want {
		t.Fatalf("checksum %v, want %v", got, want)
	}
}

// TestVerifyDoesNotChangeTheModel runs every variant with the real arithmetic
// and in the timed mode: both must model the same run (same time, traffic
// and tasks), and in the timed mode each buffer must be one block-wide slot.
// It runs on OmniPath because under the ideal profile every cost is zero, so
// a Sleep or Compute lost with the arithmetic would go unseen. A disagreeing
// pair is rerun, as in miniAMR's test of the same name: a hybrid run
// occasionally drifts by a few hundred nanoseconds on unchanged code, while a
// lost cost disagrees on every attempt.
func TestVerifyDoesNotChangeTheModel(t *testing.T) {
	type model struct {
		elapsed            time.Duration
		fabric             fabric.Stats
		submitted, spawned int64
	}
	for _, v := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"mpi", idealCfg(3, 2, 1, false, false)},
		{"tampi", idealCfg(3, 2, 4, true, false)},
		{"tagaspi", idealCfg(3, 2, 4, false, true)},
	} {
		v.cfg.Profile = fabric.ProfileOmniPath()
		run := func(verify bool) model {
			// Blocks of a few microseconds: a lost Compute must outlast the
			// polling period that would otherwise absorb it.
			p := Params{Chunks: 4, ChunkElems: 8192, BlockSize: 2048, Verify: verify}
			res := cluster.Run(v.cfg, func(env *cluster.Env) {
				switch v.name {
				case "mpi":
					RunMPIOnly(env, p)
				case "tampi":
					RunTAMPI(env, p)
				default:
					RunTAGASPI(env, p)
				}
				want := p.ChunkElems / v.cfg.RanksPerNode
				if !verify {
					want = p.BlockSize
				}
				for _, id := range []gaspisim.SegmentID{segRecv, segSend} {
					seg, err := env.GASPI.Segment(id)
					if err != nil {
						t.Error(err)
					} else if len(seg.Bytes()) != want*memory.F64Bytes {
						t.Errorf("%s Verify=%v rank %d: segment %d holds %d bytes, want %d elements",
							v.name, verify, env.Rank, id, len(seg.Bytes()), want)
					}
				}
			})
			m := model{elapsed: res.Elapsed, fabric: res.Fabric}
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
			t.Errorf("%s: Verify=true modelled %+v, Verify=false %+v", v.name, with, without)
		}
		if with.elapsed <= 0 || with.fabric.Messages == 0 {
			t.Errorf("%s: the run modelled nothing: %+v", v.name, with)
		}
	}
}

// TestValidate names the geometry a chunk cannot be split into.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		p    Params
		rpn  int
		want string
	}{
		{Params{ChunkElems: 1000, BlockSize: 64}, 1, "streaming: share 1000 not divisible by block size 64"},
		{Params{ChunkElems: 1000, BlockSize: 8}, 3, "streaming: chunk of 1000 elements not divisible by 3 ranks/node"},
		{Params{ChunkElems: 1024, BlockSize: 0}, 2, "streaming: block size 0 is not positive"},
		{Params{ChunkElems: 1024, BlockSize: 8}, 0, "streaming: ranks per node 0 is not positive"},
	} {
		err := tc.p.Validate(tc.rpn)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v on %d ranks/node: error %v, want %q", tc.p, tc.rpn, err, tc.want)
		}
	}
	if err := verifyParams.Validate(2); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

// The §VI-C mechanism: with small blocks TAMPI collapses on the MPI
// library lock while TAGASPI keeps its throughput, so TAGASPI wins.
func TestTAGASPIBeatsTAMPISmallBlocks(t *testing.T) {
	p := Params{Chunks: 10, ChunkElems: 4096, BlockSize: 64}
	prof := fabric.ProfileInfiniBand()
	cfgM := idealCfg(4, 1, 8, true, false)
	cfgM.Profile = prof
	cfgG := idealCfg(4, 1, 8, false, true)
	cfgG.Profile = prof

	var elM, elG time.Duration
	resM := cluster.Run(cfgM, func(env *cluster.Env) { RunTAMPI(env, p) })
	elM = resM.Elapsed
	resG := cluster.Run(cfgG, func(env *cluster.Env) { RunTAGASPI(env, p) })
	elG = resG.Elapsed
	if elG >= elM {
		t.Fatalf("TAGASPI (%v) not faster than TAMPI (%v) with 64-element blocks", elG, elM)
	}
}

// The paper's in-text §VI-C observation: the total time inside MPI grows
// disproportionately when the block size shrinks (the THREAD_MULTIPLE
// lock), far beyond the mere increase in message count.
func TestMPITimeBlowupWithSmallBlocks(t *testing.T) {
	run := func(block int) (time.Duration, int64) {
		p := Params{Chunks: 8, ChunkElems: 8192, BlockSize: block}
		cfg := idealCfg(3, 1, 8, true, false)
		cfg.Profile = fabric.ProfileOmniPath()
		res := cluster.Run(cfg, func(env *cluster.Env) { RunTAMPI(env, p) })
		return res.TotalMPITime(), res.Fabric.Messages
	}
	tBig, mBig := run(2048)
	tSmall, mSmall := run(128)
	msgRatio := float64(mSmall) / float64(mBig)
	timeRatio := float64(tSmall) / float64(tBig)
	if timeRatio <= msgRatio {
		t.Fatalf("MPI time ratio %.1f not superlinear vs message ratio %.1f",
			timeRatio, msgRatio)
	}
}
