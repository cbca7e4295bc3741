package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

// obsScenario is a small two-rank TAGASPI exchange exercising every
// instrumented layer: task lifecycle, one-sided writes with notifications,
// notification waits, polling passes and fabric traffic.
func obsScenario(env *Env) {
	const seg, slots = 1, 4
	if _, err := env.GASPI.SegmentCreate(seg, 256); err != nil {
		panic(err)
	}
	env.MPI.Barrier() // both segments exist before any write
	peer := tagaspi.Rank(1 - env.Rank)
	for i := 0; i < slots; i++ {
		i := i
		env.RT.Submit(func(t *tasking.Task) {
			t.Compute(200 * time.Nanosecond)
			if err := env.TAGASPI.WriteNotify(t, seg, i*8, peer, seg, i*8, 8,
				tagaspi.NotificationID(i), int64(i+1), i%2); err != nil {
				panic(err)
			}
		}, tasking.WithLabel("send"))
		env.RT.Submit(func(t *tasking.Task) {
			env.TAGASPI.NotifyIwait(t, seg, tagaspi.NotificationID(i), nil)
		}, tasking.WithLabel("recv"))
	}
	env.RT.TaskWait()
}

func obsRun(t *testing.T) (*obs.Collector, Result) {
	t.Helper()
	col := obs.NewCollector(2)
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 1,
		Profile:     fabric.ProfileInfiniBand(),
		WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: 2 * time.Microsecond,
		Recorder:    col,
		Seed:        7,
	}, obsScenario)
	return col, res
}

// TestInstrumentedRunDeterministic runs the identical instrumented job
// twice and requires byte-identical serialized traces: all timestamps come
// from the shared virtual clock and serialization sorts events canonically,
// so host-scheduler interleaving must not leak into the output.
func TestInstrumentedRunDeterministic(t *testing.T) {
	colA, resA := obsRun(t)
	colB, resB := obsRun(t)
	if resA.Elapsed != resB.Elapsed {
		t.Fatalf("elapsed differs across identical runs: %v vs %v", resA.Elapsed, resB.Elapsed)
	}
	var bufA, bufB bytes.Buffer
	if err := colA.Tracer.Write(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := colB.Tracer.Write(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("serialized traces differ across identical runs")
	}
}

// TestInstrumentedRunCoverage checks the trace and metrics content the
// observability layer promises: task-lifecycle spans and GASPI spans from
// every rank, a valid trace document, and populated latency histograms.
func TestInstrumentedRunCoverage(t *testing.T) {
	col, res := obsRun(t)

	var buf bytes.Buffer
	if err := col.Tracer.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := obs.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}

	// Per-rank coverage: task body spans and gaspi posts on both ranks.
	taskSpans := map[int]int{}
	gaspiEvents := map[int]int{}
	for _, e := range tf.TraceEvents {
		switch {
		case e.Cat == "task" && e.Ph == "X":
			taskSpans[e.Pid]++
		case e.Cat == "gaspi":
			gaspiEvents[e.Pid]++
		}
	}
	for r := 0; r < 2; r++ {
		if taskSpans[r] == 0 {
			t.Errorf("rank %d: no task spans", r)
		}
		if gaspiEvents[r] == 0 {
			t.Errorf("rank %d: no gaspi events", r)
		}
	}

	// Latency histograms filled by the run.
	for _, name := range []string{"gaspi.local_completion", "gaspi.notify_latency", "tasking.ready_to_run"} {
		if n := col.Metrics.Histogram(name).Snapshot().N; n == 0 {
			t.Errorf("histogram %s empty", name)
		}
	}

	// The unified snapshots cover fabric + both ranks' mpi, gaspi, tasking.
	comps := map[string]int{}
	for _, s := range res.Snapshots {
		comps[s.Component]++
	}
	if comps["fabric"] != 1 || comps["mpi"] != 2 || comps["gaspi"] != 2 || comps["tasking"] != 2 {
		t.Errorf("snapshot components = %v", comps)
	}
	if len(res.NIC) != 2 {
		t.Errorf("NIC snapshots = %d, want one per node", len(res.NIC))
	}
	var posts int64
	for _, s := range res.Snapshots {
		if s.Component != "gaspi" {
			continue
		}
		for _, smp := range s.Samples {
			if len(smp.Name) > 6 && smp.Name[len(smp.Name)-5:] == "posts" {
				posts += int64(smp.Value)
			}
		}
	}
	if posts == 0 {
		t.Error("gaspi queue snapshots show no posts")
	}
}

// TestUninstrumentedSnapshotsCarryRanks: without a Recorder each rank's
// tasking snapshot still names its own rank.
func TestUninstrumentedSnapshotsCarryRanks(t *testing.T) {
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 1,
		Profile:     fabric.ProfileInfiniBand(),
		WithTasking: true, WithTAGASPI: true,
		Seed: 7,
	}, obsScenario)
	var ranks []int
	for _, s := range res.Snapshots {
		if s.Component == "tasking" {
			ranks = append(ranks, s.Rank)
		}
	}
	if len(ranks) != 2 || ranks[0] != 0 || ranks[1] != 1 {
		t.Fatalf("tasking snapshot ranks = %v, want [0 1]", ranks)
	}
}
