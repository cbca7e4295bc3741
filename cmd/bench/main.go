// Command bench is the repository's performance ledger: host seconds per
// modelled result on five named workloads, with a per-layer attribution of
// where those seconds go. It is the only place performance numbers are
// taken from; README.md in this directory is the metric dictionary.
//
//	go run ./cmd/bench                      # all workloads + traced pass, human-readable
//	go run ./cmd/bench -workload gs_tagaspi_256n -seed 3 -seconds 6 -trace 0
//	go run ./cmd/bench -check               # two sets on one binary must agree
//	go run ./cmd/bench -smoke               # seconds-sized geometry of the same jobs
//
// Every job runs in a cold child process (this binary re-executed), one
// child at a time. End-to-end metrics come from untraced children only; the
// traced pass (-trace 1) adds a profiled child, layer probes and the
// cross-cutting runs, and reports its own overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string  // one workload by name; "" runs all five
	seed     int64   // benchmark seed; jobs derive their Config.Seed from it
	seconds  float64 // keep adding timed repetitions until this much has been measured
	trace    int     // 0: end-to-end only; 1: traced pass only; -1: both
	reps     int     // timed repetitions per workload (a minimum when seconds is set)
	check    bool    // run two sets and compare their medians against the bounds
	smoke    bool    // seconds-sized jobs, one set-up, two repetitions
	out      string  // write the full report (samples, spans) to this file
}

// p1Job is the workload whose host time at GOMAXPROCS=1 is compared with
// the default (vclock.p1_host_ratio): the scheduler-bound one.
const p1Job = "gs_tagaspi_256n"

// setupReps is how many times set-up (input generation, serial reference,
// Verify=true run, oracle) is repeated per workload; setup_s is the median.
const setupReps = 3

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload by name (default: all five, round-robin)")
	flag.Int64Var(&o.seed, "seed", 1, "benchmark seed: every job's Config.Seed is fabric.SeedOf(workload, seed)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each workload for at least this long (0: exactly -reps repetitions)")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
	flag.IntVar(&o.reps, "reps", 5, "timed repetitions per workload; never fewer than this")
	flag.BoolVar(&o.check, "check", false, "run two end-to-end sets and fail if a median moves by more than its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "small geometry of the same jobs (seconds in total)")
	flag.StringVar(&o.out, "out", "", "write the full JSON report (fingerprint, samples, spans) to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.reps < 1 || (o.check && o.trace == 1) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the benchmark and returns the process exit code.
func run(o options, w io.Writer) int {
	ws := workloads
	if o.workload != "" {
		one, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []workload{one}
	}
	decl, err := readDeclaration()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b := &bench{o: o, w: w, t0: time.Now(), decl: decl, runs: map[string][]sample{}}
	b.fp = fingerprintOf(o.seed)
	b.fp.CalibMS = append(b.fp.CalibMS, calibrate())

	res := result{Metrics: map[string]metric{}}
	var first map[string]*e2e
	if o.trace != 1 {
		first = b.endToEnd(ws)
		b.report(ws, first, nil)
	}
	if o.check && first != nil {
		second := b.endToEnd(ws)
		b.report(ws, second, first)
	}
	b.fp.CalibMS = append(b.fp.CalibMS, calibrate())
	var layer map[string]map[string]float64
	var cross map[string]float64
	if o.trace != 0 {
		layer = map[string]map[string]float64{}
		for _, wl := range ws {
			var timed []sample
			if first != nil {
				timed = first[wl.Name].timed
			}
			layer[wl.Name] = b.traced(wl, timed)
		}
		gs := layer[p1Job] // nil unless gs_tagaspi_256n is among the workloads
		cross = b.crossCutting(gs["cluster.setup_s"] + gs["cluster.main_s"] + gs["cluster.teardown_s"])
	}
	b.fp.CalibMS = append(b.fp.CalibMS, calibrate())
	b.judgeModel()
	fmt.Fprintln(w)
	for _, wl := range ws {
		drifted, runs := b.drift(wl.Name)
		fmt.Fprintf(w, "%-16s model drift: %d of %d runs off the modal model.elapsed_ns\n", wl.Name, drifted, runs)
		vals := layer[wl.Name]
		if vals == nil {
			continue
		}
		for name, v := range cross {
			vals[name] = v
		}
		vals["model.drift_runs"], vals["model.runs"] = float64(drifted), float64(runs)
		vals["bench.calib_ms.start"], vals["bench.calib_ms.mid"], vals["bench.calib_ms.end"] =
			b.fp.CalibMS[0], b.fp.CalibMS[1], b.fp.CalibMS[2]
	}
	if layer != nil {
		b.reportLayers(ws, layer)
	}

	// Metric names carry the workload only when several ran: the contract's
	// one-workload invocation prints exactly the declared names.
	prefix := func(wl workload) string {
		if len(ws) == 1 {
			return ""
		}
		return wl.Name + "/"
	}
	for _, wl := range ws {
		if e := first[wl.Name]; e != nil {
			for _, m := range decl.EndToEnd {
				res.Metrics[prefix(wl)+m.Name] = metric{median(b.series(e, m.Name)), m.Unit}
			}
		}
		for _, m := range decl.PerLayer {
			if vals := layer[wl.Name]; vals != nil {
				res.Metrics[prefix(wl)+m.Name] = metric{vals[m.Name], m.Unit}
			}
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0

	fmt.Fprintf(w, "\noperations: %d failed of %d attempted (share %.3f)\n", b.failed, b.attempted, failureShare(b.failed, b.attempted))
	for _, e := range b.errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	fp, _ := json.Marshal(b.fp) // plain struct of strings and numbers
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	if o.out != "" {
		if err := b.writeReport(o.out, res, first, layer); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	last, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", last)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation's state: the operations ledger, the spans
// recorded around every child, and the host fingerprint.
type bench struct {
	o    options
	w    io.Writer
	t0   time.Time
	decl declaration
	fp   fingerprint

	attempted, failed int
	errs              []string
	spans             []span
	// runs keeps every successful child of a real workload, so that the
	// modelled time can be judged over all of them (judgeModel).
	runs map[string][]sample
}

// span is one recorded interval, in seconds since the invocation started.
// Parent is the index of the enclosing span in the report, -1 for a child
// process's own span.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"`
}

// child runs one operation: a cold child, counted as attempted and, on any
// error, as failed. Its spans are kept for the report.
func (b *bench) child(spec childSpec) (sample, time.Duration, bool) {
	spec.Seed, spec.Smoke = b.o.seed, b.o.smoke
	start := time.Since(b.t0).Seconds()
	s, life, err := spawn(spec)
	b.attempted++
	if err == nil && s.Extra == nil {
		var ref *sample
		if prev := b.runs[spec.Workload]; len(prev) > 0 {
			ref = &prev[0]
		}
		err = accept(ref, s)
	}
	if err != nil {
		b.failed++
		b.errs = append(b.errs, err.Error())
		return s, life, false
	}
	if s.Extra == nil {
		b.runs[spec.Workload] = append(b.runs[spec.Workload], s)
	}
	kind := "timed"
	switch {
	case spec.Verify:
		kind = "verify"
	case spec.Profile != "":
		kind = "profiled"
	}
	self := len(b.spans)
	b.spans = append(b.spans, span{"child." + kind, spec.Workload, start, start + life.Seconds(), -1})
	// The child's clock is not ours: place its phases back from its exit.
	jobEnd := start + life.Seconds()
	jobStart := jobEnd - s.HostS
	b.spans = append(b.spans,
		span{"prepare", spec.Workload, jobStart - s.InputS, jobStart, self},
		span{"cluster.setup", spec.Workload, jobStart, jobStart + s.SetupS, self},
		span{"cluster.main", spec.Workload, jobStart + s.SetupS, jobStart + s.SetupS + s.MainS, self},
		span{"cluster.teardown", spec.Workload, jobStart + s.SetupS + s.MainS, jobEnd, self})
	return s, life, true
}

// accept is the parent's half of the oracle (the child's half compared
// outputs and checked conservation): a run must reproduce the structural
// counts of the workload's first run in this invocation — Verify must not
// change the traffic and repetitions must not differ — and its phase spans
// must account for its host time.
func accept(ref *sample, s sample) error {
	name := s.Spec.Workload
	if ref != nil && ref.Counts.structure() != s.Counts.structure() {
		return fmt.Errorf("%s: counts %+v, the first run had %+v", name, s.Counts.structure(), ref.Counts.structure())
	}
	if sum := s.SetupS + s.MainS + s.TeardownS; sum < 0.99*s.HostS || sum > 1.01*s.HostS {
		return fmt.Errorf("%s: phase spans sum to %.4fs, host_s is %.4fs", name, sum, s.HostS)
	}
	return nil
}

// modelOf returns the modal model.elapsed_ns of a workload's runs and how
// many runs are on it. The seed simulator's modelled time is not a pure
// function of its inputs: on the reference container some 5-10% of the
// tasking workloads' runs (and of figs_quick's) return a different Elapsed
// with identical traffic (README "Known defects"). Such a drift run is
// counted and printed, and kept out of the timing samples, but it is not a
// failed operation — the rule ISSUE 11 sets for the instrumented run,
// applied to what was measured.
func modelOf(runs []sample) (elapsed int64, agree int) {
	values := make([]int64, len(runs))
	for i, s := range runs {
		values[i] = s.Counts.ElapsedNS
	}
	return modeOf(values)
}

// modeOf returns the most frequent value (the earliest on a tie) and how
// often it occurs.
func modeOf(values []int64) (mode int64, count int) {
	seen := map[int64]int{}
	for _, v := range values {
		seen[v]++
	}
	for _, v := range values {
		if seen[v] > count {
			mode, count = v, seen[v]
		}
	}
	return mode, count
}

// onModel reports whether a run is on the workload's modal modelled time.
func (b *bench) onModel(s sample) bool {
	elapsed, _ := modelOf(b.runs[s.Spec.Workload])
	return s.Counts.ElapsedNS == elapsed && s.Counts.DriftRows == 0
}

// drift returns how many of a workload's runs are off its model.
func (b *bench) drift(name string) (drifted, runs int) {
	for _, s := range b.runs[name] {
		if !b.onModel(s) {
			drifted++
		}
	}
	return drifted, len(b.runs[name])
}

// judgeModel fails a workload whose modelled time cannot be pinned down:
// no two runs agree, or the runs agree with each other but not with the
// committed figure rows (a model change without regenerated rows).
func (b *bench) judgeModel() {
	for name, runs := range b.runs {
		elapsed, agree := modelOf(runs)
		if len(runs) >= 3 && agree < 2 {
			b.fail("%s: model.elapsed_ns is not reproducible: no two of %d runs agree", name, len(runs))
		}
		for _, s := range runs {
			if s.Counts.ElapsedNS == elapsed && s.Counts.DriftRows > 0 && agree >= 2 {
				b.fail("%s: %d rows differ from BENCH_figures.json in %d runs that agree with each other", name, s.Counts.DriftRows, agree)
				break
			}
		}
	}
}

// fail records a failed check that is not itself a child (a timed child
// that disagrees with the verify child's counts, say). The operation was
// already counted as attempted.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// e2e holds one workload's end-to-end set.
type e2e struct {
	setup []float64 // wall seconds of each set-up (the verify child's life)
	timed []sample  // successful timed repetitions, drift runs included
}

// series returns one end-to-end metric's samples: the set-ups, or the
// timed repetitions that are on the workload's model.
func (b *bench) series(e *e2e, name string) []float64 {
	if name == "setup_s" {
		return e.setup
	}
	var out []float64
	for _, s := range e.timed {
		if !b.onModel(s) {
			continue
		}
		switch name {
		case "host_s":
			out = append(out, s.HostS)
		case "cpu_s":
			out = append(out, s.CPUS)
		case "peak_rss_mb":
			out = append(out, s.PeakRSSMB)
		}
	}
	return out
}

// endToEnd runs one end-to-end set: set-ups first, then the timed
// repetitions, both round-robin over the workloads (A₁ B₁ … A₂ B₂ …) so
// that every workload's samples span the whole set and a noisy minute hits
// all of them. A workload stops once it has o.reps repetitions on its
// model and has been measured for o.seconds.
func (b *bench) endToEnd(ws []workload) map[string]*e2e {
	set := map[string]*e2e{}
	for _, wl := range ws {
		set[wl.Name] = &e2e{}
	}
	setups, reps := setupReps, b.o.reps
	if b.o.smoke {
		setups, reps = 1, min(reps, 2)
	}
	for i := 0; i < setups; i++ {
		for _, wl := range ws {
			if _, life, ok := b.child(childSpec{Workload: wl.Name, Verify: true}); ok {
				set[wl.Name].setup = append(set[wl.Name].setup, life.Seconds())
			}
		}
	}
	measured := map[string]float64{}
	// Failures and drift runs are replaced, but not for ever.
	for rep := 0; rep < 3*reps+20; rep++ {
		ran := false
		for _, wl := range ws {
			e := set[wl.Name]
			if len(b.series(e, "host_s")) >= reps && measured[wl.Name] >= b.o.seconds {
				continue
			}
			ran = true
			s, life, ok := b.child(childSpec{Workload: wl.Name})
			measured[wl.Name] += life.Seconds()
			if ok {
				e.timed = append(e.timed, s)
			}
		}
		if !ran {
			break
		}
	}
	for _, wl := range ws {
		if e := set[wl.Name]; len(b.series(e, "host_s")) < reps || len(e.setup) == 0 {
			b.fail("%s: %d set-ups and %d repetitions on the model, need %d", wl.Name, len(e.setup), len(b.series(e, "host_s")), reps)
		}
	}
	return set
}

// report prints one end-to-end set: per workload and metric the median,
// quartiles and n, and whether the spread resolves the metric's bound.
// cpu_s is printed with them but not gated (README "Deviations"). With a
// previous set it also prints how far each median moved, and fails a gated
// metric that moved by more than its bound.
func (b *bench) report(ws []workload, set, prev map[string]*e2e) {
	fmt.Fprintf(b.w, "\n%-16s %-16s %10s %10s %10s %3s %7s %6s\n",
		"workload", "metric", "median", "q1", "q3", "n", "spread", "bound")
	rows := append([]declared{{Name: "cpu_s", Unit: "s"}}, b.decl.EndToEnd...)
	for _, wl := range ws {
		e := set[wl.Name]
		for _, m := range rows {
			q := summarize(b.series(e, m.Name))
			bound, note := "     -", ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", 100*m.Bound)
				if q.spread() > m.Bound {
					note = "  unresolved: spread exceeds bound"
				}
			}
			if prev != nil {
				before := median(b.series(prev[wl.Name], m.Name))
				moved := worseBy(before, q.Median)
				note += fmt.Sprintf("  moved %+.1f%%", 100*moved)
				if m.Bound > 0 && (moved > m.Bound || moved < -m.Bound) {
					b.fail("%s %s: second set's median %.4g differs from the first's %.4g by more than the bound %.2f",
						wl.Name, m.Name, q.Median, before, m.Bound)
				}
			}
			fmt.Fprintf(b.w, "%-16s %-16s %10.4f %10.4f %10.4f %3d %6.1f%% %s%s\n",
				wl.Name, m.Name+" ("+m.Unit+")", q.Median, q.Q1, q.Q3, q.N, 100*q.spread(), bound, note)
		}
	}
}

// traced runs the traced pass for one workload and returns every per-layer
// metric by name. timed are the workload's end-to-end repetitions when this
// invocation already has them; otherwise two are taken here.
func (b *bench) traced(wl workload, timed []sample) map[string]float64 {
	out := map[string]float64{}
	if len(timed) == 0 {
		b.child(childSpec{Workload: wl.Name, Verify: true}) // the output oracle
		for i := 0; i < 2; i++ {
			if s, _, ok := b.child(childSpec{Workload: wl.Name}); ok {
				timed = append(timed, s)
			}
		}
	}
	var untraced []sample
	for _, s := range timed {
		if b.onModel(s) {
			untraced = append(untraced, s)
		}
	}
	if len(untraced) == 0 {
		b.fail("%s: no untraced sample on the model for the traced pass", wl.Name)
		return out
	}

	// Phase spans, boundary counts and runtime deltas: medians over the
	// untraced children (the counts are identical in all of them).
	med := func(f func(sample) float64) float64 {
		vals := make([]float64, len(untraced))
		for i, s := range untraced {
			vals[i] = f(s)
		}
		return median(vals)
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0 // figs_quick: messages and tasks are not visible through a Generator
		}
		return x / n
	}
	c := untraced[0].Counts
	host := med(func(s sample) float64 { return s.HostS })
	msgs, tasks := float64(c.Messages), float64(c.Tasks)
	out["cpu_s"] = med(func(s sample) float64 { return s.CPUS })
	out["cluster.setup_s"] = med(func(s sample) float64 { return s.SetupS })
	out["cluster.main_s"] = med(func(s sample) float64 { return s.MainS })
	out["cluster.teardown_s"] = med(func(s sample) float64 { return s.TeardownS })
	out["model.elapsed_ns"] = float64(c.ElapsedNS)
	out["fabric.messages"] = msgs
	out["fabric.bytes"] = float64(c.Bytes)
	out["fabric.msgs_mpi"] = float64(c.MsgsMPI)
	out["fabric.msgs_gaspi"] = float64(c.MsgsGASPI)
	out["tasking.tasks"] = tasks
	out["tasking.spawned"] = float64(c.Spawned)
	out["exp.rows"] = float64(c.Rows)
	out["fabric.host_us_per_msg"] = per(host*1e6, msgs)
	out["tasking.host_us_per_task"] = per(host*1e6, tasks)
	out["goruntime.allocs_per_msg"] = per(med(func(s sample) float64 { return float64(s.Allocs) }), msgs)
	out["goruntime.alloc_bytes_per_msg"] = per(med(func(s sample) float64 { return float64(s.AllocBytes) }), msgs)
	out["goruntime.gc_cycles"] = med(func(s sample) float64 { return float64(s.GCCycles) })
	out["goruntime.gc_pause_ms"] = med(func(s sample) float64 { return s.GCPauseMS })
	out["goruntime.mutex_wait_s"] = med(func(s sample) float64 { return s.MutexWaitS })
	out["goruntime.sched_latency_p50_us"] = med(func(s sample) float64 { return s.SchedLatencyP50US })
	out["goruntime.ctxsw_vol_per_msg"] = per(med(func(s sample) float64 { return float64(s.CtxSwVol) }), msgs)
	out["goruntime.ctxsw_invol"] = med(func(s sample) float64 { return float64(s.CtxSwInvol) })

	// CPU share by layer, from one profiled child.
	for _, l := range layers {
		out["cpu_share."+l] = 0
	}
	prof, err := profilePath(wl.Name)
	if err != nil {
		b.fail("%s: %v", wl.Name, err)
		return out
	}
	defer os.Remove(prof)
	if s, _, ok := b.child(childSpec{Workload: wl.Name, Profile: prof}); ok {
		out["bench.profile_overhead_ratio"] = s.HostS / host
		out["goruntime.peak_goroutines"] = float64(s.PeakGoroutines)
		shares, n, err := cpuShares(prof)
		switch {
		case err != nil:
			b.fail("%s: %v", wl.Name, err)
		case n == 0 && !b.o.smoke: // a smoke job can end between two profiler ticks
			b.fail("%s: CPU profile holds no samples", wl.Name)
		}
		var sum float64
		for l, v := range shares {
			out["cpu_share."+l] = v
			sum += v
		}
		if n > 0 && (sum < 0.99 || sum > 1.01) {
			b.fail("%s: cpu_share.* sums to %.4f", wl.Name, sum)
		}
	}

	return out
}

// crossCutting runs the part of the traced pass that does not depend on
// the workload — the layer probes and the cross-cutting comparisons — once
// per invocation. gsHost is the untraced host_s of gs_tagaspi_256n when the
// invocation has it, 0 otherwise.
func (b *bench) crossCutting(gsHost float64) map[string]float64 {
	out := map[string]float64{}
	// Layer probes and the instrumented-run comparison, one child each.
	for _, job := range []string{probesJob, obsJob} {
		if s, _, ok := b.child(childSpec{Workload: job}); ok {
			for name, v := range s.Extra {
				out[name] = v
			}
		}
	}

	// Second-core benefit on the scheduler-bound workload: host_s at
	// GOMAXPROCS=1 over host_s at the default.
	if gsHost == 0 {
		if s, _, ok := b.child(childSpec{Workload: p1Job}); ok {
			gsHost = s.HostS
		}
	}
	if s, _, ok := b.child(childSpec{Workload: p1Job, Procs: 1}); ok && gsHost > 0 {
		out["vclock.p1_host_ratio"] = s.HostS / gsHost
	}

	// Pool efficiency of the figure set: Σ per-point host time over
	// workers × wall time.
	if s, _, ok := b.child(childSpec{Workload: "figs_quick", HostTimes: true}); ok {
		out["exp.pool_efficiency"] = s.Counts.PointHostS / (float64(s.GOMAXPROCS) * s.HostS)
	}
	return out
}

// profilePath names the profiled child's output inside the checkout's
// build directory (.bench_build, git-ignored); the caller removes the file.
func profilePath(name string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s.%d.pprof", name, os.Getpid())), nil
}

// reportLayers prints the per-layer metrics, one column per workload.
func (b *bench) reportLayers(ws []workload, layer map[string]map[string]float64) {
	fmt.Fprintf(b.w, "\n%-34s %-9s", "per-layer metric", "unit")
	for _, wl := range ws {
		fmt.Fprintf(b.w, " %16s", wl.Name)
	}
	fmt.Fprintln(b.w)
	for _, m := range b.decl.PerLayer {
		fmt.Fprintf(b.w, "%-34s %-9s", m.Name, m.Unit)
		for _, wl := range ws {
			fmt.Fprintf(b.w, " %16.6g", layer[wl.Name][m.Name])
		}
		fmt.Fprintln(b.w)
	}
}

// writeReport writes everything the invocation learned as one JSON file.
func (b *bench) writeReport(path string, res result, set map[string]*e2e, layer map[string]map[string]float64) error {
	type e2eOut struct {
		SetupS []float64 `json:"setup_s"`
		Timed  []sample  `json:"timed"`
	}
	doc := struct {
		Fingerprint fingerprint                   `json:"fingerprint"`
		Result      result                        `json:"result"`
		EndToEnd    map[string]e2eOut             `json:"end_to_end,omitempty"`
		PerLayer    map[string]map[string]float64 `json:"per_layer,omitempty"`
		Errors      []string                      `json:"errors,omitempty"`
		Spans       []span                        `json:"spans"`
	}{Fingerprint: b.fp, Result: res, PerLayer: layer, Errors: b.errs, Spans: b.spans}
	if set != nil {
		doc.EndToEnd = map[string]e2eOut{}
		for name, e := range set {
			doc.EndToEnd[name] = e2eOut{e.setup, e.timed}
		}
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	Kernel     string    `json:"kernel"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	CalibMS    []float64 `json:"bench.calib_ms"` // start, middle, end of the invocation
}

func fingerprintOf(seed int64) fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		Seed: seed,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if root, err := repoRoot(); err == nil && fp.Commit == "unknown" {
		fp.Commit = gitHead(filepath.Join(root, ".git")) // `go run` does not stamp the build
	}
	return fp
}

// gitHead reads the checked-out commit from a .git directory without
// running git; "unknown" when there is none (the driver's checkout).
func gitHead(dir string) string {
	raw, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(raw))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached: HEAD holds the hash
	}
	if raw, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// declaration is BENCHMARK.json: the names, units and bounds this program
// must print. It is read at run time so that the two cannot drift apart.
type declaration struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declared                   `json:"end_to_end"`
	PerLayer  []declared                   `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration() (declaration, error) {
	var d declaration
	root, err := repoRoot()
	if err != nil {
		return d, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}
