package heat

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/memory"
)

// gather runs one variant and collects each rank's interior strip.
func gather(cfg cluster.Config, p Params, variant func(*cluster.Env, Params) *grid) ([][]float64, cluster.Result) {
	ranks := cfg.Nodes * cfg.RanksPerNode
	strips := make([][]float64, ranks)
	var mu sync.Mutex
	res := cluster.Run(cfg, func(env *cluster.Env) {
		g := variant(env, p)
		if env.RT != nil {
			env.RT.TaskWait()
		}
		s := g.Strip()
		mu.Lock()
		strips[env.Rank] = s
		mu.Unlock()
	})
	return strips, res
}

// assemble concatenates strips into a full interior matrix.
func assemble(strips [][]float64) []float64 {
	var out []float64
	for _, s := range strips {
		out = append(out, s...)
	}
	return out
}

func mpiOnlyConfig(ranks int) cluster.Config {
	return cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: 1,
		Profile: fabric.ProfileIdeal(),
	}
}

func hybridCfg(ranks, cores int, tagaspi bool) cluster.Config {
	cfg := cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: cores,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true,
		TAMPIPoll:   5 * time.Microsecond,
		TAGASPIPoll: 5 * time.Microsecond,
	}
	if tagaspi {
		cfg.WithTAGASPI = true
	} else {
		cfg.WithTAMPI = true
	}
	return cfg
}

var verifyParams = Params{
	Rows: 32, Cols: 48, Timesteps: 7,
	BlockRows: 4, BlockCols: 12, Verify: true,
}

func checkAgainstSerial(t *testing.T, got []float64, p Params) {
	t.Helper()
	want := Serial(p)
	// Compare interiors: serial includes boundary rows 0 and Rows+1.
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			w := want[(r+1)*p.Cols+c]
			g := got[r*p.Cols+c]
			if w != g {
				t.Fatalf("mismatch at (%d,%d): got %v, want %v", r, c, g, w)
			}
		}
	}
}

func TestSerialReferenceConverges(t *testing.T) {
	p := verifyParams
	u := Serial(p)
	// Heat must have diffused into the first interior row by now.
	warm := 0
	for c := 1; c < p.Cols-1; c++ {
		if u[1*p.Cols+c] > 0 {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no diffusion happened; kernel broken")
	}
	// The bottom boundary (0) must keep values bounded below the source.
	for i, v := range u {
		if v < 0 || v > boundaryTop {
			t.Fatalf("u[%d] = %v outside [0,1]", i, v)
		}
	}
}

func TestMPIOnlyMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		strips, _ := gather(mpiOnlyConfig(ranks), verifyParams, RunMPIOnly)
		checkAgainstSerial(t, assemble(strips), verifyParams)
	}
}

func TestTAMPIMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		strips, _ := gather(hybridCfg(ranks, 4, false), verifyParams, RunTAMPI)
		checkAgainstSerial(t, assemble(strips), verifyParams)
	}
}

func TestTAGASPIMatchesSerial(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		strips, _ := gather(hybridCfg(ranks, 4, true), verifyParams, RunTAGASPI)
		checkAgainstSerial(t, assemble(strips), verifyParams)
	}
}

func TestVariantsAgreeUnderContentionProfile(t *testing.T) {
	// Same numerics under a real cost profile (timing changes, values not).
	p := verifyParams
	cfg := hybridCfg(2, 4, true)
	cfg.Profile = fabric.ProfileInfiniBand()
	strips, res := gather(cfg, p, RunTAGASPI)
	checkAgainstSerial(t, assemble(strips), p)
	if res.Elapsed <= 0 {
		t.Fatal("no modelled time elapsed under a costed profile")
	}
}

func TestTAGASPIFasterWithSmallBlocksThanTAMPI(t *testing.T) {
	// The paper's headline behaviour (Fig. 10): with small blocks and a
	// costed profile, TAGASPI outperforms TAMPI because TAMPI's
	// communication tasks contend on the MPI library lock.
	p := Params{Rows: 128, Cols: 256, Timesteps: 6, BlockRows: 8, BlockCols: 16}
	prof := fabric.ProfileOmniPath()

	cfgM := hybridCfg(4, 8, false)
	cfgM.Profile = prof
	_, resM := gather(cfgM, p, RunTAMPI)

	cfgG := hybridCfg(4, 8, true)
	cfgG.Profile = prof
	_, resG := gather(cfgG, p, RunTAGASPI)

	if resG.Elapsed >= resM.Elapsed {
		t.Fatalf("TAGASPI (%v) not faster than TAMPI (%v) with fine-grained blocks",
			resG.Elapsed, resM.Elapsed)
	}
}

// TestVerifyDoesNotChangeTheModel runs every variant with the real arithmetic
// and in the timed mode: both must model the same run (same time, traffic
// and tasks), and the timed mode must hold one block-wide slot and no strip.
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
		name    string
		cfg     cluster.Config
		variant func(*cluster.Env, Params) *grid
	}{
		{"mpi", mpiOnlyConfig(4), RunMPIOnly},
		{"tampi", hybridCfg(4, 4, false), RunTAMPI},
		{"tagaspi", hybridCfg(4, 4, true), RunTAGASPI},
	} {
		v.cfg.Profile = fabric.ProfileOmniPath()
		run := func(verify bool) model {
			// Blocks of a few microseconds: a lost Compute must outlast the
			// polling period that would otherwise absorb it.
			p := Params{Rows: 256, Cols: 256, Timesteps: 3, BlockRows: 32, BlockCols: 128, Verify: verify}
			strips, res := gather(v.cfg, p, func(env *cluster.Env, p Params) *grid {
				g := v.variant(env, p)
				if n := len(g.seg.Bytes()); !verify && n != p.BlockCols*memory.F64Bytes {
					t.Errorf("%s rank %d: timed-mode segment of %d bytes, want one %d-column block",
						v.name, env.Rank, n, p.BlockCols)
				}
				return g
			})
			for r, s := range strips {
				if (s != nil) != verify {
					t.Fatalf("%s Verify=%v: rank %d Strip() non-nil = %v", v.name, verify, r, s != nil)
				}
			}
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

// TestValidate names the geometry a decomposition cannot split.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		p      Params
		ranks  int
		hybrid bool
		want   string
	}{
		{Params{Rows: 1000, Cols: 2048, BlockRows: 64, BlockCols: 64}, 24, false,
			"heat: 1000 rows not divisible by 24 ranks"},
		{Params{Rows: 64, Cols: 64, BlockCols: 0}, 2, false, "heat: block width 0 is not positive"},
		{Params{Rows: 64, Cols: 64, BlockRows: 0, BlockCols: 16}, 2, true, "heat: block height 0 is not positive"},
		{Params{Rows: 64, Cols: 64, BlockRows: 24, BlockCols: 16}, 2, true,
			"heat: block 24x16 does not divide strip 32x64"},
		{Params{Rows: 64, Cols: 64, BlockCols: 24}, 2, false, "heat: block width 24 does not divide 64 columns"},
		{Params{Rows: 64, Cols: 64, BlockCols: 16}, 0, false, "heat: rank count 0 is not positive"},
	} {
		err := tc.p.Validate(tc.ranks, tc.hybrid)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v on %d ranks (hybrid %v): error %v, want %q", tc.p, tc.ranks, tc.hybrid, err, tc.want)
		}
	}
	if err := verifyParams.Validate(4, true); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestUpdatesFigureOfMerit(t *testing.T) {
	p := Params{Rows: 100, Cols: 200, Timesteps: 3}
	if p.Updates() != 60000 {
		t.Fatalf("Updates = %v", p.Updates())
	}
}
