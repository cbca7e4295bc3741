package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tasking"
)

// TestGASPIDropRecovery drives a two-node hybrid job through dropped
// GASPI messages: each failed write+notify puts the sender's queue in the
// error state, the TAGASPI retry policy backs off, repairs the queue and
// resubmits until an attempt lands, and the receiver ends up with intact
// data. Under this seed the path drops four attempts in a row; the exact
// counts and finish time pin the repair-and-retry path, and no operation
// may be given up. Run under -race by the CI fault gate.
func TestGASPIDropRecovery(t *testing.T) {
	const n = 256
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: 5 * time.Microsecond,
		Seed:        5,
		Faults:      fabric.FaultPlan{GASPIDrop: 0.5},
	}
	bad := make(chan string, 4)
	// Under the zero-latency ideal profile the t=0 write+notify would
	// otherwise race rank 1's segment registration within the same virtual
	// instant, so the ranks synchronize on a host channel, which costs no
	// virtual time and leaves the tested scenario untouched.
	segReady := make(chan struct{})
	res := cluster.Run(cfg, func(env *cluster.Env) {
		seg, err := env.GASPI.SegmentCreate(0, n)
		if err != nil {
			t.Error(err)
			return
		}
		switch env.Rank {
		case 0:
			<-segReady
			for i := range seg.Bytes() {
				seg.Bytes()[i] = byte(i)
			}
			env.RT.Submit(func(tk *tasking.Task) {
				if err := env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, n, 3, 42, 0); err != nil {
					t.Error(err)
				}
			}, tasking.WithDeps(tasking.In(seg, 0, n)))
		case 1:
			close(segReady)
			var got int64
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAGASPI.NotifyIwait(tk, 0, 3, &got)
			}, tasking.WithDeps(tasking.Out(seg, 0, n), tasking.OutVal(&got)))
			env.RT.Submit(func(tk *tasking.Task) {
				if got != 42 {
					bad <- "notification value lost across the drops"
				}
				for i, b := range seg.Bytes() {
					if b != byte(i) {
						bad <- "payload corrupted across the drops"
						return
					}
				}
			}, tasking.WithDeps(tasking.In(seg, 0, n), tasking.InVal(&got)))
		}
	})
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	var retries, gaveup, qerrs, faults float64
	for _, s := range res.Snapshots {
		for _, smp := range s.Samples {
			switch smp.Name {
			case "tagaspi_retries":
				retries += smp.Value
			case "tagaspi_gaveup":
				gaveup += smp.Value
			case "gaspi_queue_errors":
				qerrs += smp.Value
			case "fabric_faults_injected":
				faults += smp.Value
			}
		}
	}
	if retries != 4 || gaveup != 0 || qerrs != 4 || faults != 4 {
		t.Errorf("snapshots: tagaspi_retries=%v tagaspi_gaveup=%v gaspi_queue_errors=%v fabric_faults_injected=%v, want 4, 0, 4, 4",
			retries, gaveup, qerrs, faults)
	}
	if want := 330 * time.Microsecond; res.Elapsed != want {
		t.Errorf("job finished at %v, want %v", res.Elapsed, want)
	}
}
