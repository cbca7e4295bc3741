package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
)

func TestCheckPositive(t *testing.T) {
	if err := check(map[string]int{"rows": 1024, "steps": 1}, 1, "> 0"); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	err := check(map[string]int{"block": 0, "rows": 256, "steps": -4}, 1, "> 0")
	if err == nil {
		t.Fatal("non-positive flags accepted")
	}
	msg := err.Error()
	for _, want := range []string{"-block must be > 0 (got 0)", "-steps must be > 0 (got -4)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "-rows") {
		t.Errorf("error %q names the valid flag -rows", msg)
	}
	// Deterministic order: sorted by flag name.
	if strings.Index(msg, "-block") > strings.Index(msg, "-steps") {
		t.Errorf("error %q not sorted by flag name", msg)
	}
}

func TestCheckNonNegative(t *testing.T) {
	if err := check(map[string]int{"maxlevel": 0}, 0, ">= 0"); err != nil {
		t.Fatalf("zero rejected: %v", err)
	}
	if err := check(map[string]int{"maxlevel": -1}, 0, ">= 0"); err == nil {
		t.Fatal("negative accepted")
	}
}

// TestErrorPaths requires every bad command line to fail before the job
// starts, with exit status 2 and a message naming the cause.
func TestErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing subcommand"},
		{[]string{"lulesh"}, `unknown subcommand "lulesh"`},
		{[]string{"heat", "-variant", "shmem"}, `unknown variant "shmem"`},
		{[]string{"miniamr", "-profile", "slingshot"}, `unknown profile "slingshot"`},
		{[]string{"heat", "-block", "0"}, "-block must be > 0 (got 0)"},
		{[]string{"heat", "-nodes", "-2"}, "-nodes must be > 0 (got -2)"},
		{[]string{"streaming", "-chunk", "0", "-mpi-rpn", "0"}, "-chunk must be > 0 (got 0); -mpi-rpn must be > 0 (got 0)"},
		{[]string{"miniamr", "-refine", "0"}, "-refine must be > 0"},
		{[]string{"miniamr", "-maxlevel", "-1"}, "-maxlevel must be >= 0 (got -1)"},
		{[]string{"heat", "-faults", "1"}, "-faults 1 outside [0,1)"},
		{[]string{"heat", "-faults", "-0.1"}, "-faults -0.1 outside [0,1)"},
		// Regression: NaN passed the range check and then failed "> 0",
		// so the run was silently fault-free.
		{[]string{"heat", "-faults", "NaN"}, "-faults NaN outside [0,1)"},
		{[]string{"heat", "-rows"}, "flag needs an argument"},
		// Regression: -poll 0 ran at the 150µs library default and -poll
		// -1us dedicated the poller, both without a word.
		{[]string{"heat", "-poll", "0"}, "-poll must be > 0 (got 0s)"},
		{[]string{"streaming", "-poll", "-1us"}, "-poll must be > 0 (got -1µs)"},
		// Regression: geometry the decomposition cannot split panicked
		// inside a rank goroutine.
		{[]string{"heat", "-variant", "mpi", "-nodes", "3", "-rows", "1000"}, "heat: 1000 rows not divisible by 24 ranks"},
		{[]string{"heat", "-rows", "1000"}, "heat: block 64x64 does not divide strip 125x2048"},
		{[]string{"heat", "-variant", "mpi", "-cols", "1000"}, "heat: block width 64 does not divide 1000 columns"},
		{[]string{"streaming", "-nodes", "2", "-chunk", "1000", "-block", "64"}, "streaming: share 1000 not divisible by block size 64"},
		{[]string{"streaming", "-variant", "mpi", "-chunk", "1004"}, "streaming: chunk of 1004 elements not divisible by 8 ranks/node"},
		{[]string{"streaming", "tagaspi"}, `unexpected argument "tagaspi"`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
			continue
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%q: exit status %d, want 2 (%v)", tc.args, code, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not name the cause %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed a report before failing:\n%s", tc.args, out.String())
		}
	}
}

// TestHeatVerify runs each variant with -verify: every rank's strip must
// match the serial sweep bit for bit.
func TestHeatVerify(t *testing.T) {
	for _, tc := range []struct {
		variant string
		ranks   int
	}{{"mpi", 16}, {"tampi", 2}, {"tagaspi", 2}} {
		var out bytes.Buffer
		args := []string{"heat", "-variant", tc.variant, "-nodes", "2", "-rpn", "1", "-cores", "2",
			"-rows", "128", "-cols", "256", "-steps", "3", "-block", "32", "-verify"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v\n%s", tc.variant, err, out.String())
		}
		want := fmt.Sprintf("verify: %d strips bitwise identical to the serial sweep\n", tc.ranks)
		if !strings.HasSuffix(out.String(), want) {
			t.Errorf("%s: report does not end with %q:\n%s", tc.variant, want, out.String())
		}
	}
}

// TestVerifyStripsNamesTheMismatch flips one bit of one rank's strip: the
// check must fail with exit status 1 and name the rank and index.
func TestVerifyStripsNamesTheMismatch(t *testing.T) {
	p := heat.Params{Rows: 8, Cols: 16, Timesteps: 2, Verify: true}
	ref := heat.Serial(p)
	strips := make([][]float64, 4)
	for r := range strips {
		strips[r] = append([]float64(nil), ref[(1+2*r)*p.Cols:][:2*p.Cols]...)
	}
	if err := verifyStrips(p, strips); err != nil {
		t.Fatalf("serial rows rejected: %v", err)
	}
	strips[2][5] = math.Float64frombits(math.Float64bits(strips[2][5]) ^ 1)
	err := verifyStrips(p, strips)
	if err == nil || !strings.Contains(err.Error(), "rank 2 index 5") {
		t.Fatalf("flipped bit reported as %v, want rank 2 index 5", err)
	}
	if code := exitCode(err); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	strips[3] = nil
	strips[2] = append([]float64(nil), ref[5*p.Cols:][:2*p.Cols]...)
	if err := verifyStrips(p, strips); err == nil || !strings.Contains(err.Error(), "rank 3 returned 0 values") {
		t.Errorf("missing strip reported as %v", err)
	}
}

// TestMiniAMRVerify runs each variant with -verify at a geometry of its
// own: every final leaf must match the serial reference bit for bit.
func TestMiniAMRVerify(t *testing.T) {
	for _, variant := range []string{"mpi", "tampi", "tagaspi"} {
		var out bytes.Buffer
		args := []string{"miniamr", "-variant", variant, "-nodes", "2", "-rpn", "2", "-cores", "2",
			"-cells", "4", "-vars", "3", "-steps", "6", "-refine", "3", "-maxlevel", "1", "-verify"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v\n%s", variant, err, out.String())
		}
		if !strings.Contains(out.String(), "leaves bitwise identical to the serial reference\n") {
			t.Errorf("%s: report has no verify line:\n%s", variant, out.String())
		}
	}
}

// TestVerifyLeavesNamesTheMismatch flips one bit of one leaf: the check
// must fail with exit status 1 and name the rank, the leaf and the index.
func TestVerifyLeavesNamesTheMismatch(t *testing.T) {
	p := miniamr.Params{Grid: [3]int{2, 2, 2}, Cells: 4, Vars: 2, Steps: 4, RefineEvery: 2,
		MaxLevel: 1, Radius: 0.6, Verify: true}
	const ranks = 3
	final := p.Epochs(ranks)[1]
	ref := miniamr.Serial(p)
	blocks := make([]map[miniamr.Leaf][]float64, ranks)
	for r := range blocks {
		blocks[r] = make(map[miniamr.Leaf][]float64)
		for _, i := range final.ByRank[r] {
			l := final.Leaves[i]
			blocks[r][l] = append([]float64(nil), ref[l]...)
		}
	}
	if err := verifyLeaves(p, final, blocks); err != nil {
		t.Fatalf("serial leaves rejected: %v", err)
	}
	l := final.Leaves[final.ByRank[2][1]]
	blocks[2][l][7] = math.Float64frombits(math.Float64bits(blocks[2][l][7]) ^ 1)
	err := verifyLeaves(p, final, blocks)
	want := fmt.Sprintf("rank 2 leaf %+v index 7", l)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("flipped bit reported as %v, want %s", err, want)
	}
	if code := exitCode(err); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	delete(blocks[1], final.Leaves[final.ByRank[1][0]])
	if err := verifyLeaves(p, final, blocks); err == nil || !strings.Contains(err.Error(), "rank 1 returned") {
		t.Errorf("missing leaf reported as %v", err)
	}
}

// TestDefaultConfigGolden pins the job description each subcommand builds
// from its default flags, for every variant, to the literal the per-app
// command lines built before they shared one variant parser.
func TestDefaultConfigGolden(t *testing.T) {
	omni, ib := fabric.ProfileOmniPath(), fabric.ProfileInfiniBand()
	us := time.Microsecond
	for _, tc := range []struct {
		args []string
		want cluster.Config
	}{
		{[]string{"heat", "-variant", "mpi"},
			cluster.Config{Nodes: 4, RanksPerNode: 8, CoresPerRank: 1, Profile: omni, Seed: 1}},
		{[]string{"heat", "-variant", "tampi"},
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: 10 * us, Seed: 1}},
		{[]string{"heat", "-variant", "tagaspi"},
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAGASPI: true, TAGASPIPoll: 10 * us, Seed: 1}},
		{[]string{"heat", "-faults", "0.05"},
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAGASPI: true, TAGASPIPoll: 10 * us, Seed: 1,
				Faults: fabric.FaultPlan{MPIDrop: 0.05, GASPIDrop: 0.05}}},

		{[]string{"miniamr", "-variant", "mpi"},
			cluster.Config{Nodes: 4, RanksPerNode: 8, CoresPerRank: 1, Profile: omni, Seed: 2}},
		{[]string{"miniamr", "-variant", "tampi"},
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: 10 * us, Seed: 2}},
		{[]string{"miniamr", "-variant", "tagaspi"},
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
				TAMPIPoll: 10 * us, TAGASPIPoll: 10 * us, Seed: 2}},

		{[]string{"streaming", "-variant", "mpi"},
			cluster.Config{Nodes: 4, RanksPerNode: 8, CoresPerRank: 1, Profile: ib, Seed: 3}},
		{[]string{"streaming", "-variant", "tampi"},
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 8, Profile: ib,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: us, Seed: 3}},
		{[]string{"streaming", "-variant", "tagaspi"},
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 8, Profile: ib,
				WithTasking: true, WithTAGASPI: true, TAGASPIPoll: us, Seed: 3}},
	} {
		j, err := parse(tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		// cluster.Run reads the polling period of an enabled library only.
		got := j.cfg
		if !got.WithTAMPI {
			got.TAMPIPoll = 0
		}
		if !got.WithTAGASPI {
			got.TAGASPIPoll = 0
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q:\n got  %+v\n want %+v", tc.args, got, tc.want)
		}
	}
}

// TestDeterminismGates runs small seeded jobs in process, the concurrent
// ones on concurrent goroutines (the execution shape of the host-parallel
// experiment engine), and checks what a run must guarantee without a
// committed baseline: two seeded fault-injected runs print the same bytes;
// instrumented runs write traces that validate and dropped nothing; and
// the blame report is the same bytes whether a trace is also written, and
// whether it is computed in process or re-derived from the trace file.
func TestDeterminismGates(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	small := func(variant string, extra ...string) []string {
		return append([]string{"heat", "-variant", variant, "-nodes", "2", "-rpn", "1", "-cores", "2",
			"-rows", "128", "-cols", "256", "-steps", "2", "-block", "64"}, extra...)
	}
	faulty := []string{"heat", "-variant", "tagaspi", "-nodes", "2", "-rows", "256", "-cols", "256",
		"-steps", "4", "-faults", "0.05"}
	read := func(t *testing.T, name string) string {
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct {
		name  string
		runs  [][]string // run concurrently
		check func(t *testing.T, outs []string)
	}{
		{"faults", [][]string{faulty, faulty}, func(t *testing.T, outs []string) {
			if outs[0] != outs[1] {
				t.Fatalf("two seeded -faults runs differ:\n%s\n---\n%s", outs[0], outs[1])
			}
			if !strings.Contains(outs[0], "tagaspi retries") {
				t.Fatalf("no fault line in the report:\n%s", outs[0])
			}
		}},
		{"trace", [][]string{
			small("tagaspi", "-trace", path("tagaspi.json"), "-metrics"),
			small("tampi", "-trace", path("tampi.json"), "-metrics"),
		}, func(t *testing.T, _ []string) {
			for _, name := range []string{"tagaspi.json", "tampi.json"} {
				tf, err := obs.ReadTraceFile(path(name))
				if err == nil {
					err = tf.Validate()
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n, dropped := tf.DroppedEvents(); dropped {
					t.Fatalf("%s: %d events were dropped during recording", name, n)
				}
			}
		}},
		{"blame", [][]string{
			small("tagaspi", "-blame", path("blame-a.txt")),
			small("tagaspi", "-trace", path("blame.json"), "-blame", path("blame-b.txt")),
		}, func(t *testing.T, _ []string) {
			a := read(t, "blame-a.txt")
			if b := read(t, "blame-b.txt"); a != b {
				t.Fatalf("blame report changes when a trace is also written:\n%s\n---\n%s", a, b)
			}
			if !strings.Contains(a, "attributed 100.00% of makespan") {
				t.Fatalf("report does not attribute the whole makespan:\n%s", a)
			}
			tf, err := obs.ReadTraceFile(path("blame.json"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := critpath.FromTraceFile(tf)
			if err != nil {
				t.Fatal(err)
			}
			var re bytes.Buffer
			if err := rep.WriteText(&re); err != nil {
				t.Fatal(err)
			}
			if re.String() != a {
				t.Fatalf("report re-derived from the trace file differs:\n%s\n---\n%s", re.String(), a)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs := make([]string, len(tc.runs))
			errs := make([]error, len(tc.runs))
			var wg sync.WaitGroup
			for i, args := range tc.runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var out bytes.Buffer
					errs[i] = run(args, &out)
					outs[i] = out.String()
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%q: %v", tc.runs[i], err)
				}
			}
			tc.check(t, outs)
		})
	}
}
