package cluster

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/tasking"
)

// TestScaleBoundedGoroutines is the 256-node smoke test of the host
// substrate (ARCHITECTURE.md "Sharded host substrate"): a job at the
// paper's node count (reduced to one rank per node) with GASPI
// neighbourhood traffic and tasks must keep the host goroutine count
// linear in ranks with a small constant — one main per rank plus at most
// Cores running bodies, and nothing for waiting tasks, the fabric or the
// rank's TAGASPI polling service, which both run on clock events — and
// must unwind completely after Run (fabric closed, schedulers shut down).
// A goroutine per ordering domain or per submitted task blows the
// in-flight budget at this scale, and a leaked body trips the settle
// check.
func TestScaleBoundedGoroutines(t *testing.T) {
	const (
		nodes  = 256
		cores  = 2
		rounds = 3
	)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	sample := func() {
		g := int64(runtime.NumGoroutine())
		for {
			cur := peak.Load()
			if g <= cur || peak.CompareAndSwap(cur, g) {
				return
			}
		}
	}

	cfg := Config{
		Nodes: nodes, RanksPerNode: 1, CoresPerRank: cores,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true,
		Seed: 42,
	}
	const seg = gaspisim.SegmentID(1)
	res := Run(cfg, func(env *Env) {
		n := env.Ranks()
		me := int(env.Rank)
		if _, err := env.GASPI.SegmentCreate(seg, 64); err != nil {
			t.Errorf("rank %d: segment: %v", me, err)
			return
		}
		env.MPI.Barrier()
		// Four neighbourhood partners per rank (±1, ±16 with wraparound):
		// enough distinct ordering domains (4n) that a goroutine per
		// domain would dwarf the budget.
		dirs := [4]int{1, n - 1, 16, n - 16}
		for round := 0; round < rounds; round++ {
			for d, step := range dirs {
				dst := fabric.Rank((me + step) % n)
				if err := env.GASPI.WriteNotify(seg, 0, dst, seg, 0, 8,
					gaspisim.NotificationID(d), int64(round+1), 0, nil); err != nil {
					t.Errorf("rank %d: write_notify: %v", me, err)
					return
				}
			}
			env.RT.Submit(func(*tasking.Task) {})
			for d := range dirs {
				if _, ok := env.GASPI.NotifyWaitSome(seg, gaspisim.NotificationID(d),
					1, -1); !ok {
					t.Errorf("rank %d: notification %d never arrived", me, d)
					return
				}
				env.GASPI.NotifyReset(seg, gaspisim.NotificationID(d))
			}
			env.GASPI.Wait(0)
			sample()
			env.MPI.Barrier()
		}
	})
	if res.Fabric.Messages < int64(4*nodes*rounds) {
		t.Fatalf("fabric carried %d messages, want >= %d", res.Fabric.Messages, 4*nodes*rounds)
	}

	// In-flight budget: a main goroutine per rank and up to Cores running
	// bodies (the polling service has no goroutine), none for the fabric,
	// and slack for the test harness itself. Linear in ranks — NOT in
	// ordering domains (4n of them here) and NOT in submitted tasks.
	budget := int64(base + nodes*(1+cores) + 32)
	t.Logf("peak goroutines %d (budget %d, base %d)", peak.Load(), budget, base)
	if p := peak.Load(); p > budget {
		t.Fatalf("peak goroutine count %d exceeds budget %d (base %d): host substrate no longer bounded", p, budget, base)
	}

	// Leak check: everything the job spawned (rank mains, task bodies)
	// must unwind after Run returns. The job is
	// over, so this settle loop measures the host, not the model.
	//lint:ignore detlint host-side settle deadline: the simulation has already finished
	deadline := time.Now().Add(10 * time.Second)
	//lint:ignore detlint host-side settle poll: the simulation has already finished
	for runtime.NumGoroutine() > base+8 && time.Now().Before(deadline) {
		//lint:ignore detlint host-side settle poll: the simulation has already finished
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > base+8 {
		t.Fatalf("goroutines leaked after Run: %d before, %d after", base, after)
	}
}

// TestEarlyExitTeardown drives the whole-job teardown path with ranks
// that exit as early as possible: every rank fires a burst of one-sided
// writes at its neighbour and returns without waiting for delivery, local
// completion, or the notification. Run's teardown (barrier, scheduler
// shutdown, fabric Close) must drain the in-flight burst and return
// without panicking or hanging — the regression that used to bite when a
// rank exited during an in-flight batch.
func TestEarlyExitTeardown(t *testing.T) {
	const seg = gaspisim.SegmentID(3)
	res := Run(Config{
		Nodes: 8, RanksPerNode: 2, CoresPerRank: 2,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true,
		Seed:        7,
	}, func(env *Env) {
		n := env.Ranks()
		me := int(env.Rank)
		if _, err := env.GASPI.SegmentCreate(seg, 256); err != nil {
			t.Errorf("rank %d: segment: %v", me, err)
			return
		}
		env.MPI.Barrier()
		dst := fabric.Rank((me + 1) % n)
		for i := 0; i < 16; i++ {
			if err := env.GASPI.WriteNotify(seg, 0, dst, seg, 0, 128,
				gaspisim.NotificationID(i), 1, 0, nil); err != nil {
				t.Errorf("rank %d: write_notify: %v", me, err)
				return
			}
		}
		// Early exit: the burst is still in flight.
	})
	if res.Fabric.Messages == 0 {
		t.Fatal("no fabric traffic recorded")
	}
}
