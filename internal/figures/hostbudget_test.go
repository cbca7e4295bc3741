package figures

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/cluster"
	"repro/internal/fabric"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; wall-clock budget gates skip under -race.
var raceEnabled bool

// HostNsPerMessageBudget is the committed per-message host-time budget of
// the scale-preset Gauss–Seidel point: total host wall time of the job
// divided by fabric messages must stay below it. The point (TAGASPI at 256
// nodes: 512 hybrid ranks, ~86k messages) read 37–39µs/message with the
// one-lock clock, its constant-delay lanes and the gated idle pass, on a
// host where the sharded clock before them read 54–59µs and the 2-core
// reference host had read ~38µs — ≈26µs in reference terms (~64µs with a
// goroutine per polling service). The budget is 4x that, rounded up, for
// slower CI hosts, while still catching a structural regression — a
// per-event heap sift or notification scan on every idle pass,
// goroutine-per-task execution or a goroutine park per modelled poll wait
// multiplies host time at this rank count.
const HostNsPerMessageBudget = 110_000

// HostBytesPerMessageBudget is the committed heap budget of the same point:
// bytes the job allocates (runtime.MemStats.TotalAlloc) divided by fabric
// messages. The point reads about 1,950 bytes/message with the timed-mode
// apps holding one block-wide slot per buffer; when every heat rank held its
// whole (rp+2)×Cols strip it read about 8,360. The budget is 2x the current
// figure, so it catches app buffers growing with the matrix again, or a
// per-message allocation that doubles the substrate's churn.
const HostBytesPerMessageBudget = 4_000

// scaleGatePoint is the gated simulation: the Fig. 9 Scale-preset TAGASPI
// point at the paper's 256 nodes (512 hybrid ranks, 3 timesteps).
func scaleGatePoint() (cluster.Config, heat.Params) {
	p := gsParams(256, 64, 64, 3)
	return cluster.TAGASPI.Config(256, fabric.ProfileOmniPath(), gsGeometry), p
}

// TestPerMessageHostBudget is the host-time regression gate of
// scripts/ci.sh, the wall-clock analogue of fabric.CourierAllocBudget: it
// runs one scale-preset point and fails if host time or heap bytes per
// fabric message exceed their committed budgets.
func TestPerMessageHostBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("host wall-clock is inflated by race-detector instrumentation")
	}
	if testing.Short() {
		t.Skip("scale point is too large for -short")
	}
	cfg, p := scaleGatePoint()
	var peak atomic.Int64
	stop := make(chan struct{})
	go func() {
		//lint:ignore detlint host-side goroutine sampler: this gate measures the host, not the model
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if g := int64(runtime.NumGoroutine()); g > peak.Load() {
					peak.Store(g)
				}
			}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:ignore detlint host wall-clock measurement is the point of this gate
	start := time.Now()
	res := cluster.Run(cfg, func(env *cluster.Env) { heat.RunTAGASPI(env, p) })
	//lint:ignore detlint host wall-clock measurement is the point of this gate
	host := time.Since(start)
	runtime.ReadMemStats(&after)
	close(stop)
	msgs := res.Fabric.Messages
	if msgs == 0 {
		t.Fatal("scale point sent no messages")
	}
	per := float64(host.Nanoseconds()) / float64(msgs)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(msgs)
	t.Logf("scale point: host %v, %d messages, %.0f ns/message (budget %d), %.0f bytes/message (budget %d), peak goroutines %d",
		host.Round(time.Millisecond), msgs, per, HostNsPerMessageBudget, bytesPer, HostBytesPerMessageBudget, peak.Load())
	// The goroutine bound is the cheap half of the gate: one per rank (its
	// main) plus slack for the harness. The sampled peak is 515 on this
	// point: the 512 rank mains and the harness. Every task of the TAGASPI
	// heat job is a step task, and the fabric and the polling services have
	// no goroutine either. A goroutine per task body sampled 569–584 here,
	// so the slack is 32, not 64: a return to it fails the gate.
	ranks := cfg.Nodes * cfg.RanksPerNode
	if gBudget := int64(ranks + 32); peak.Load() > gBudget {
		t.Fatalf("peak goroutine count %d exceeds budget %d: host substrate no longer bounded",
			peak.Load(), gBudget)
	}
	if per > HostNsPerMessageBudget {
		t.Fatalf("host time per message %.0f ns exceeds budget %d ns — "+
			"did a hot path (fabric steps, task starts, clock queue, idle poll pass) regress?",
			per, HostNsPerMessageBudget)
	}
	if bytesPer > HostBytesPerMessageBudget {
		t.Fatalf("heap allocated per message %.0f bytes exceeds budget %d — "+
			"does a timed-mode app hold more than one block per buffer again, or does the "+
			"substrate (mpisim, gaspisim) copy every payload instead of sharing unchanged ones?",
			bytesPer, HostBytesPerMessageBudget)
	}
}
