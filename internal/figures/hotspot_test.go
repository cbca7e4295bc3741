package figures

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// TestHotspotLinkContention runs one mesh incast point end to end and
// checks the figure's premise: the links converging on the hot node carry
// the traffic of several senders, so the job's per-link snapshots must
// show nonzero contention wait — the emergent backpressure the flat model
// cannot produce.
func TestHotspotLinkContention(t *testing.T) {
	cfg := hsConfig(cluster.MPIOnly, fabric.ShapeMesh2D, 4)
	cfg.Seed = fabric.SeedOf("hotspot-test/mesh/n4")
	res := cluster.Run(cfg, func(env *cluster.Env) { hsMPIOnlyMain(env, 4, 32<<10) })
	if len(res.Links) == 0 {
		t.Fatal("shaped run returned no per-link statistics")
	}
	var waited time.Duration
	var msgs int64
	for _, l := range res.Links {
		waited += l.Res.Waited
		msgs += l.Msgs
	}
	if msgs == 0 {
		t.Fatal("no link carried any message")
	}
	if waited == 0 {
		t.Fatal("incast produced zero link-contention wait; the hotspot figure would be meaningless")
	}
}

// TestHotspotDeterministic reruns one shaped incast point per variant and
// requires identical modelled results: elapsed time, message count and
// every per-link statistic. This is the in-process half of the ci.sh
// hotspot determinism gate (which additionally diffs two full JSON
// regenerations).
func TestHotspotDeterministic(t *testing.T) {
	for _, v := range cluster.Variants {
		run := func() cluster.Result {
			cfg := hsConfig(v, fabric.ShapeFatTree, 8)
			cfg.Seed = fabric.SeedOf("hotspot-test/fattree/n8")
			return cluster.Run(cfg, func(env *cluster.Env) { hsMains[v](env, 2, 16<<10) })
		}
		a, b := run(), run()
		if a.Elapsed != b.Elapsed || a.Fabric.Messages != b.Fabric.Messages {
			t.Fatalf("%s: reruns diverged: elapsed %v/%v, messages %d/%d",
				v, a.Elapsed, b.Elapsed, a.Fabric.Messages, b.Fabric.Messages)
		}
		if len(a.Links) != len(b.Links) {
			t.Fatalf("%s: rerun link counts differ: %d vs %d", v, len(a.Links), len(b.Links))
		}
		for i := range a.Links {
			if a.Links[i] != b.Links[i] {
				t.Fatalf("%s: link %d stats diverged: %+v vs %+v",
					v, i, a.Links[i], b.Links[i])
			}
		}
	}
}

// TestMultiHopHostBudget is the multi-hop companion of
// TestPerMessageHostBudget: a 16-node mesh incast pushes every message
// through up to six link hops, and host time per message
// must stay inside the same committed budget — the per-hop pipeline may
// not multiply host cost per message. The job takes under 0.1 s, so one
// timing of it also measures whatever else the host ran in that instant;
// the best of three runs is gated (the budget is on the code, not on the
// neighbour sharing the second vCPU).
func TestMultiHopHostBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("host wall-clock is inflated by race-detector instrumentation")
	}
	if testing.Short() {
		t.Skip("budget point is too noisy for -short")
	}
	cfg := hsConfig(cluster.MPIOnly, fabric.ShapeMesh2D, 16)
	cfg.Seed = fabric.SeedOf("hotspot-budget/mesh/n16")
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
	var host time.Duration
	var msgs int64
	for run := 0; run < 3; run++ {
		//lint:ignore detlint host wall-clock measurement is the point of this gate
		start := time.Now()
		res := cluster.Run(cfg, func(env *cluster.Env) { hsMPIOnlyMain(env, 64, 32<<10) })
		//lint:ignore detlint host wall-clock measurement is the point of this gate
		d := time.Since(start)
		if run == 0 || d < host {
			host = d
		}
		msgs = res.Fabric.Messages
	}
	close(stop)
	if msgs == 0 {
		t.Fatal("multi-hop budget point sent no messages")
	}
	per := float64(host.Nanoseconds()) / float64(msgs)
	t.Logf("multi-hop point: best of 3 host %v, %d messages, %.0f ns/message (budget %d), peak goroutines %d",
		host.Round(time.Millisecond), msgs, per, HostNsPerMessageBudget, peak.Load())
	if per > HostNsPerMessageBudget {
		t.Fatalf("multi-hop host time per message %.0f ns exceeds budget %d ns — "+
			"did the per-hop chain regress?", per, HostNsPerMessageBudget)
	}
}
