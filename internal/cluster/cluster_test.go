package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/tasking"
)

func TestRunWiresEveryRank(t *testing.T) {
	var ranks atomic.Int32
	res := Run(Config{
		Nodes: 2, RanksPerNode: 3, CoresPerRank: 2,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond,
	}, func(env *Env) {
		ranks.Add(1)
		if env.MPI == nil || env.GASPI == nil || env.RT == nil ||
			env.TAMPI == nil || env.TAGASPI == nil {
			t.Error("missing environment component")
		}
		if env.Ranks() != 6 {
			t.Errorf("Ranks() = %d", env.Ranks())
		}
		env.RT.Submit(func(*tasking.Task) {})
	})
	if ranks.Load() != 6 {
		t.Fatalf("main ran on %d ranks, want 6", ranks.Load())
	}
	if len(res.MPILock) != 6 || len(res.Tasking) != 6 {
		t.Fatalf("per-rank stats incomplete: %d/%d", len(res.MPILock), len(res.Tasking))
	}
	var completed int64
	for _, s := range res.Tasking {
		completed += s.Completed
	}
	if completed != 6 {
		t.Fatalf("completed tasks = %d, want 6", completed)
	}
}

func TestRunWithoutTasking(t *testing.T) {
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1,
		Profile: fabric.ProfileInfiniBand(),
	}, func(env *Env) {
		if env.RT != nil || env.TAMPI != nil || env.TAGASPI != nil {
			t.Error("tasking components must be nil when disabled")
		}
		if env.Rank == 0 {
			env.MPI.Send([]byte("x"), 1, 0)
		} else {
			env.MPI.Recv(make([]byte, 1), 0, 0)
		}
	})
	if res.Elapsed <= 0 {
		t.Fatal("no modelled time elapsed under a costed profile")
	}
	if res.Fabric.Messages == 0 {
		t.Fatal("no fabric traffic recorded")
	}
}

func TestCostOf(t *testing.T) {
	prof := fabric.ProfileOmniPath()
	env := &Env{Cfg: &Config{Profile: prof}}
	d := env.CostOf(prof.CoreHz) // exactly one second of work
	if d != time.Second {
		t.Fatalf("CostOf(CoreHz) = %v, want 1s", d)
	}
	env = &Env{Cfg: &Config{Profile: fabric.ProfileIdeal()}}
	if env.CostOf(1e9) != 0 {
		t.Fatal("ideal profile must cost zero")
	}
}

func TestTaskAwareRequiresTasking(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{Nodes: 1, RanksPerNode: 1, WithTAMPI: true,
		Profile: fabric.ProfileIdeal()}, func(*Env) {})
}

func TestTotalMPITime(t *testing.T) {
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1,
		Profile: fabric.ProfileInfiniBand(),
	}, func(env *Env) {
		if env.Rank == 0 {
			env.MPI.Send(make([]byte, 64), 1, 0)
		} else {
			env.MPI.Recv(make([]byte, 64), 0, 0)
		}
	})
	if res.TotalMPITime() <= 0 {
		t.Fatal("MPI lock time not accounted")
	}
}
