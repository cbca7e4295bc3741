package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own cold child: spawn
// re-executes os.Executable() with the spec in the environment.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) from CPython.
	cases := []struct {
		values         []float64
		q1, median, q3 float64
	}{
		{[]float64{3, 1, 2, 10, 5}, 1.5, 3, 7.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, 3.5, 24, 160},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q := summarize(c.values)
		if q.Q1 != c.q1 || q.Median != c.median || q.Q3 != c.q3 || q.N != len(c.values) {
			t.Errorf("summarize(%v) = %+v, want %v %v %v", c.values, q, c.q1, c.median, c.q3)
		}
	}
	if q := summarize(nil); q != (quartiles{}) {
		t.Errorf("summarize(nil) = %+v", q)
	}
	if got := (quartiles{Q1: 9, Median: 10, Q3: 12}).spread(); got != 0.3 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestFailureShareAndWorseBy(t *testing.T) {
	if got := failureShare(1, 4); got != 0.25 {
		t.Errorf("failureShare(1,4) = %v", got)
	}
	if got := failureShare(0, 0); got != 0 {
		t.Errorf("failureShare(0,0) = %v", got)
	}
	if got := worseBy(2, 2.5); got != 0.25 {
		t.Errorf("worseBy(2,2.5) = %v", got)
	}
	if got := worseBy(2, 1.5); got != -0.25 {
		t.Errorf("worseBy(2,1.5) = %v", got)
	}
}

func TestLayerBucketing(t *testing.T) {
	// Every package directory under internal/ must be placed on purpose.
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		l, ok := internalLayer[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no entry in internalLayer", d.Name())
			continue
		} else if !known[l] {
			t.Errorf("internal/%s maps to %q, which is not a layer", d.Name(), l)
		}
		if got := layerOf([]string{"repro/internal/" + d.Name() + ".F"}); got != l {
			t.Errorf("layerOf(internal/%s.F) = %q, want %q", d.Name(), got, l)
		}
	}
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/vclock.(*VirtualClock).advance"}, "vclock"},
		{[]string{"repro/internal/vsync.(*Queue[go.shape.struct { repro/internal/fabric.m *uint8 }]).Push"}, "vsync"},
		{[]string{"repro/internal/apps/heat.(*grid).sweep"}, "apps"},
		{[]string{"repro/internal/obs/critpath.Analyze"}, "obs"},
		{[]string{"repro/internal/figures.Fig09GaussSeidelScaling.func1"}, "exp"},
		{[]string{"repro/internal/newpkg.F"}, "other"},
		{[]string{"repro/cmd/bench.prepareIncast.func1"}, "apps"},
		{[]string{"sync.(*Mutex).Lock"}, "go_sync"},
		{[]string{"internal/sync.(*Mutex).lockSlow"}, "go_sync"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "go_sched"},
		{[]string{"runtime.lock2", "runtime.chansend", "repro/internal/exp.(*Sweep).Execute.func1"}, "go_sync"},
		{[]string{"runtime.lock2", "runtime.findRunnable", "runtime.schedule"}, "go_sched"},
		{[]string{"runtime.memmove", "repro/internal/mpisim.(*Proc).deliver"}, "go_mem"},
		{[]string{"runtime.(*mspan).typePointersOfUnchecked", "runtime.scanobject", "runtime.gcDrain"}, "go_gc"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/tasking.(*Runtime).Submit"}, "go_mem"},
		{[]string{"gogo"}, "go_sched"},
		{[]string{"internal/runtime/maps.(*Map).Delete", "runtime.mapdelete_fast64", "repro/internal/fabric.(*Fabric).Send"}, "other"},
		{[]string{"math/rand.(*rngSource).Uint64"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink uint64

// TestDecodeProfile round-trips a real CPU profile of this process through
// the in-tree pprof decoder.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for i := 0; i < 1<<16; i++ {
			spinSink = spinSink*0x9E3779B97F4A7C15 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		if s.value <= 0 {
			t.Fatalf("stack %v has weight %d", s.funcs, s.value)
		}
		for _, fn := range s.funcs {
			if strings.Contains(fn, "TestDecodeProfile") {
				found = true
			}
		}
	}
	if len(stacks) == 0 || !found {
		t.Fatalf("decoded %d stacks, none through TestDecodeProfile", len(stacks))
	}
	if _, err := decodeProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestProbesRespectClockContract runs every probe twenty times at a tiny
// size. A probe that drives a virtual clock from a goroutine the clock does
// not know (as BenchmarkCourierDelivery does; README "Known defects")
// panics within a few runs.
func TestProbesRespectClockContract(t *testing.T) {
	if testing.Short() {
		t.Skip("20 runs of every probe")
	}
	names := map[string]bool{}
	for _, p := range probes {
		for i := 0; i < 20; i++ {
			for name, v := range p.run(max(16, p.n/400)) {
				names[name] = true
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s = %v", name, v)
				}
			}
		}
	}
	if len(names) < len(probes) {
		t.Fatalf("%d probes produced %d metrics", len(probes), len(names))
	}
}

// report strips the (long) result line from a failed run's output.
func report(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func readResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var g []string
	for name := range got {
		g = append(g, name)
	}
	sort.Strings(g)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s: emitted names\n%v\ndeclared names\n%v", what, g, w)
	}
}

// TestSmokeMatchesDeclaration runs the whole benchmark at smoke size — all
// five workloads, the traced pass with every probe — and checks that what
// it emits is exactly what BENCHMARK.json declares, in both directions.
func TestSmokeMatchesDeclaration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns some fifty child processes")
	}
	decl, err := readDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	var e2eNames, layerNames, all []string
	for _, m := range decl.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range decl.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	for _, w := range workloads {
		for _, n := range append(append([]string(nil), e2eNames...), layerNames...) {
			all = append(all, w.Name+"/"+n)
		}
	}

	var out bytes.Buffer
	if code := run(options{seed: 1, reps: 2, smoke: true, trace: -1}, &out); code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, report(out.String()))
	}
	r := readResult(t, out.String())
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("smoke run: correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}
	sameNames(t, "all workloads", r.Metrics, all)
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}

	// The driver's invocations: one workload, end-to-end or per-layer only.
	out.Reset()
	if code := run(options{workload: "incast_mesh_64n", seed: 2, seconds: 0.1, reps: 2, smoke: true, trace: 0}, &out); code != 0 {
		t.Fatalf("-trace 0 exited %d\n%s", code, report(out.String()))
	}
	r = readResult(t, out.String())
	sameNames(t, "-trace 0", r.Metrics, e2eNames)
	for name, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
		}
	}
	out.Reset()
	if code := run(options{workload: "incast_mesh_64n", seed: 2, reps: 2, smoke: true, trace: 1}, &out); code != 0 {
		t.Fatalf("-trace 1 exited %d\n%s", code, report(out.String()))
	}
	sameNames(t, "-trace 1", readResult(t, out.String()).Metrics, layerNames)
}

// TestOracle checks both halves of the oracle on a real job: the child's
// output comparison accepts a correct run, and the parent's accept rejects
// a run whose traffic or spans disagree while leaving modelled-time drift
// to modelOf.
func TestOracle(t *testing.T) {
	j := prepareIncast(childSpec{Seed: 1, Smoke: true, Verify: true})
	c, err := j.run(&phases{t0: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.check(&c); err != nil {
		t.Fatalf("oracle rejects a correct run: %v", err)
	}
	if c.Messages == 0 || c.Messages != c.MsgsMPI {
		t.Fatalf("incast counts %+v", c)
	}
	if incastByte(1, 3, 5, 7) == incastByte(2, 3, 5, 7) {
		t.Error("payload pattern does not depend on the seed")
	}

	ref := sample{Counts: c, HostS: 1, SetupS: 0.1, MainS: 0.8, TeardownS: 0.1}
	if err := accept(&ref, ref); err != nil {
		t.Errorf("accept rejects the reference itself: %v", err)
	}
	drift := ref
	drift.Counts.ElapsedNS++
	if err := accept(&ref, drift); err != nil {
		t.Errorf("accept must leave modelled-time drift to modelOf: %v", err)
	}
	lost := ref
	lost.Counts.Messages--
	if accept(&ref, lost) == nil {
		t.Error("accept takes a run with a message missing")
	}
	gap := ref
	gap.MainS = 0.5
	if accept(nil, gap) == nil {
		t.Error("accept takes spans that do not sum to host_s")
	}

	runs := []sample{ref, drift, ref, ref}
	if elapsed, agree := modelOf(runs); elapsed != c.ElapsedNS || agree != 3 {
		t.Errorf("modelOf = %d x%d, want %d x3", elapsed, agree, c.ElapsedNS)
	}
	b := &bench{runs: map[string][]sample{"": runs}}
	if drifted, n := b.drift(""); drifted != 1 || n != 4 {
		t.Errorf("drift = %d of %d, want 1 of 4", drifted, n)
	}
	b.judgeModel()
	if b.failed != 0 {
		t.Errorf("one drift run in four failed the workload: %v", b.errs)
	}
	b = &bench{runs: map[string][]sample{"": {ref, drift, lost}}}
	b.runs[""][2].Counts.ElapsedNS += 2
	b.judgeModel()
	if b.failed != 1 {
		t.Errorf("three runs with three modelled times: failed = %d, want 1", b.failed)
	}
}
