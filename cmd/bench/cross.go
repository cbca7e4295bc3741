package main

import (
	"time"

	"repro/internal/apps/heat"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
)

// Pseudo-workload names of the traced pass's extra children. They are not
// in BENCHMARK.json's workload list: their results are per-layer metrics.
const (
	probesJob = "probes"
	obsJob    = "obs"
)

// obsRuns is how many plain/instrumented pairs the obs child runs.
const obsRuns = 8

// runObs measures what instrumenting a job costs and whether it changes
// the model: the same 64-node TAGASPI Gauss–Seidel job run plain and with
// obs.NewCollector, alternately, obsRuns times each. The instrumented run
// stays out of the end-to-end set: its modelled Elapsed drifts like any
// tasking job's (README "Known defects") on top of a 2x host cost, so here
// its drift is a count beside the plain runs' own.
func runObs(seed int64, smoke bool) map[string]float64 {
	nodes, runs := 64, obsRuns
	p := heat.Params{Cols: 1024, Timesteps: 3, BlockRows: 64, BlockCols: 64}
	if smoke {
		nodes, runs = 2, 2
		p.Cols = 256
	}
	p.Rows = 64 * nodes * 2
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 2, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true,
		TAMPIPoll: pollPeriod, TAGASPIPoll: pollPeriod,
		Seed: seedOf(obsJob, seed),
	}

	var plain, traced []float64
	var plainElapsed, tracedElapsed []int64
	var events, messages int
	var analyze float64
	ranks := cfg.Nodes * cfg.RanksPerNode
	job := func(cfg cluster.Config) cluster.Result {
		enter := startGate(ranks, nil)
		return cluster.Run(cfg, func(env *cluster.Env) {
			enter()
			heat.RunTAGASPI(env, p)
		})
	}
	for i := 0; i < runs; i++ {
		t := time.Now()
		res := job(cfg)
		plain = append(plain, time.Since(t).Seconds())
		plainElapsed = append(plainElapsed, res.Elapsed.Nanoseconds())

		icfg := cfg
		col := obs.NewCollector(ranks)
		icfg.Recorder = col
		t = time.Now()
		res = job(icfg)
		traced = append(traced, time.Since(t).Seconds())
		tracedElapsed = append(tracedElapsed, res.Elapsed.Nanoseconds())
		if i == 0 {
			events, messages = col.Tracer.Len(), int(res.Fabric.Messages)
			t = time.Now()
			if _, err := critpath.Analyze(col.Tracer.Events()); err != nil {
				panic(err)
			}
			analyze = time.Since(t).Seconds()
		}
	}
	// Both kinds of run are judged against the plain runs' modal Elapsed.
	model, _ := modeOf(plainElapsed)
	off := func(es []int64) (n float64) {
		for _, e := range es {
			if e != model {
				n++
			}
		}
		return n
	}
	return map[string]float64{
		"obs.host_ratio":       median(traced) / median(plain),
		"obs.events":           float64(events),
		"obs.events_per_msg":   float64(events) / float64(messages),
		"obs.drift_runs":       off(tracedElapsed),
		"obs.plain_drift_runs": off(plainElapsed),
		"obs.runs":             float64(runs),
		"critpath.analyze_s":   analyze,
	}
}

// calibrate times a fixed integer-hash and memmove spin: a reading of how
// fast this host is right now. It is reported beside the results and never
// used to rescale them.
func calibrate() float64 {
	t := time.Now()
	h := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 4<<20; i++ {
		h ^= h >> 29
		h *= 0xBF58476D1CE4E5B9
		h += uint64(i)
	}
	a, b := make([]byte, 1<<20), make([]byte, 1<<20)
	a[0] = byte(h) // keep the hash alive
	for i := 0; i < 64; i++ {
		copy(b, a)
		copy(a, b)
	}
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
