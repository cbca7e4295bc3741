package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a childSpec to a re-executed copy of this binary. An
// environment variable (not a flag) selects child mode so that the test
// binary can serve as its own child through TestMain.
const childEnv = "REPRO_BENCH_CHILD"

// childTimeout bounds one child; a child that exceeds it is a failed
// operation.
const childTimeout = 150 * time.Second

// childSpec describes one execution of one workload in a cold process.
type childSpec struct {
	Workload string
	Seed     int64
	Smoke    bool
	Verify   bool // run the real arithmetic and the output oracle
	// Traced-pass switches; all off for the end-to-end repetitions.
	Profile   string // write a CPU profile of the job here
	Procs     int    // GOMAXPROCS override (0: runtime default)
	HostTimes bool   // figs_quick: keep per-point host times
}

// sample is what one child reports about its one job.
type sample struct {
	Spec       childSpec
	GOMAXPROCS int
	Err        string `json:",omitempty"` // invariant or oracle failure

	InputS    float64 // prepare: input generation and serial references
	HostS     float64 // wall seconds of the job call
	CPUS      float64 // user+sys CPU seconds of the job call
	PeakRSSMB float64 // ru_maxrss at exit
	// Phase spans of the job call; they sum to HostS.
	SetupS, MainS, TeardownS float64

	Counts counts

	// Go runtime deltas over the job call.
	Allocs, AllocBytes   uint64
	GCCycles             uint32
	GCPauseMS            float64
	MutexWaitS           float64
	SchedLatencyP50US    float64
	CtxSwVol, CtxSwInvol int64
	PeakGoroutines       int // 20 ms sampler; profiled children only

	// Extra holds the metrics of a probes or obs child, by name.
	Extra map[string]float64 `json:",omitempty"`
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// profileHz is the CPU-profile sampling rate of the traced pass.
const profileHz = 500

const (
	metricMutexWait = "/sync/mutex/wait/total:seconds"
	metricSchedLat  = "/sched/latencies:seconds"
)

// runtimeState is the Go-runtime side of a measurement boundary.
type runtimeState struct {
	mem      runtime.MemStats
	mutexS   float64
	schedLat *metrics.Float64Histogram
}

func readRuntime() runtimeState {
	var s runtimeState
	runtime.ReadMemStats(&s.mem)
	ms := []metrics.Sample{{Name: metricMutexWait}, {Name: metricSchedLat}}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.mutexS = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = ms[1].Value.Float64Histogram() // fresh per Read: ms is new each call
	}
	return s
}

// histDeltaP50 returns the upper edge of the bucket holding the median of
// the samples added between two reads of one cumulative histogram.
func histDeltaP50(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if 2*seen >= total {
			hi := after.Buckets[i+1]
			if hi > 1e300 { // +Inf edge: fall back to the bucket's lower edge
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// sampleGoroutines polls runtime.NumGoroutine every 20 ms until stop is
// closed and reports the peak on done.
func sampleGoroutines(stop <-chan struct{}, done chan<- int) {
	peak := runtime.NumGoroutine()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- peak
			return
		case <-tick.C:
			peak = max(peak, runtime.NumGoroutine())
		}
	}
}

// runChild executes the spec in this process and returns its sample. An
// invariant or oracle failure lands in sample.Err; a panic inside the
// simulator takes the process down, which the parent counts as a failure.
func runChild(spec childSpec) (sample, error) {
	switch spec.Workload {
	case probesJob:
		return sample{Spec: spec, Extra: runProbes(spec.Smoke)}, nil
	case obsJob:
		return sample{Spec: spec, Extra: runObs(spec.Seed, spec.Smoke)}, nil
	}
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return sample{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if spec.Procs > 0 {
		runtime.GOMAXPROCS(spec.Procs)
	}
	s := sample{Spec: spec, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	t := time.Now()
	j := w.prepare(spec)
	s.InputS = time.Since(t).Seconds()

	var stop chan struct{}
	var peak chan int
	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			return s, err
		}
		defer f.Close()
		// pprof.StartCPUProfile asks for 100 Hz, a few hundred samples for a
		// job this short. Setting the rate first makes its own request fail
		// (the runtime says so on stderr) and keeps this one.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			return s, err
		}
		stop, peak = make(chan struct{}), make(chan int, 1)
		go sampleGoroutines(stop, peak)
	}

	runtime.GC() // start every job from a collected heap, references included
	rt0, ru0 := readRuntime(), rusage()
	ph := &phases{t0: time.Now()}
	c, err := j.run(ph)
	host := time.Since(ph.t0)
	ru1, rt1 := rusage(), readRuntime()

	if spec.Profile != "" {
		pprof.StopCPUProfile()
		close(stop)
		s.PeakGoroutines = <-peak
	}
	if err == nil && j.check != nil {
		err = j.check(&c)
	}
	if err != nil {
		s.Err = err.Error()
	}

	s.HostS = host.Seconds()
	s.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	s.SetupS = float64(ph.first.Load()) / 1e9
	s.MainS = float64(ph.last.Load()-ph.first.Load()) / 1e9
	s.TeardownS = s.HostS - s.SetupS - s.MainS
	s.Counts = c
	s.Allocs = rt1.mem.Mallocs - rt0.mem.Mallocs
	s.AllocBytes = rt1.mem.TotalAlloc - rt0.mem.TotalAlloc
	s.GCCycles = rt1.mem.NumGC - rt0.mem.NumGC
	s.GCPauseMS = float64(rt1.mem.PauseTotalNs-rt0.mem.PauseTotalNs) / 1e6
	s.MutexWaitS = rt1.mutexS - rt0.mutexS
	s.SchedLatencyP50US = histDeltaP50(rt0.schedLat, rt1.schedLat) * 1e6
	s.CtxSwVol = ru1.Nvcsw - ru0.Nvcsw
	s.CtxSwInvol = ru1.Nivcsw - ru0.Nivcsw
	s.PeakRSSMB = float64(rusage().Maxrss) / 1024 // Linux reports KiB
	return s, nil
}

// childMain is the entry point of a re-executed child: it runs the spec
// from the environment and prints one JSON line.
func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: bad spec: %v\n", err)
		return 2
	}
	s, err := runChild(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	out, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// spawn runs the spec in a cold copy of this binary and waits for it. The
// returned duration is the child's whole life as the parent saw it. Any
// error — crash, timeout, unparsable output, or a failure the child
// reported itself — makes the operation a failed one.
func spawn(spec childSpec) (sample, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, 0, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return sample{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	err = cmd.Run() // Run waits: no child outlives its operation
	life := time.Since(t)
	if err != nil {
		return sample{}, life, fmt.Errorf("%s child: %w: %s", spec.Workload, err, firstLines(stderr.String(), 8))
	}
	var s sample
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &s); err != nil {
		return sample{}, life, fmt.Errorf("%s child: unreadable sample: %w", spec.Workload, err)
	}
	if s.Err != "" {
		return s, life, fmt.Errorf("%s child: %s", spec.Workload, s.Err)
	}
	return s, life, nil
}

// firstLines returns the leading n lines of s: of a panic, the message and
// the top of the first stack.
func firstLines(s string, n int) string {
	lines := strings.SplitN(strings.TrimSpace(s), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
