// Package exp is the declarative experiment engine behind the paper's
// evaluation (§VI). Every figure is a sweep of independent simulation
// points (variant × nodes × block size × machine profile); exp turns that
// shape into data: a Point names one cluster job and how to reduce it to
// figure-of-merit values, a Sweep is an ordered point set plus the figure
// frame it fills in, and Execute runs the points on a bounded pool of host
// workers — each point is one self-contained discrete-event simulation, so
// points parallelise across host cores with no shared state beyond the Go
// runtime.
//
// Determinism: a point's modelled results depend only on its cluster
// Config (including the seed, derived from the sweep and point ids via
// fabric.SeedOf when left zero) — never on execution order or worker
// count. Sequential and parallel executions of the same sweep therefore
// produce identical figures, and identical machine-readable rows (see
// json.go) up to measured host times.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// Point is one independent experiment: a cluster configuration, the rank
// main to run on it, and the reduction from the finished job to named
// series values.
//
// A Point's closures may capture point-local state that the rank mains
// write and Values reads (the engine calls Values after the job's
// cluster.Run has fully returned, on the same goroutine). Points are
// executed at most once per Sweep execution; rebuild the sweep to rerun.
type Point struct {
	// ID identifies the point within its sweep; the fabric seed chain
	// derives from it (see SeedFor), so it must be unique and stable.
	ID string
	// X is the figure x-axis value this point contributes to.
	X float64
	// Cfg is the cluster job description. A zero Seed is replaced by
	// SeedFor(sweep id, point id) before the run.
	Cfg cluster.Config
	// Main is the per-rank main function of the job.
	Main func(*cluster.Env)
	// Values reduces the finished job to one or more named series
	// samples, e.g. {"TAGASPI": GUpdates/s}. Every name must appear in
	// the sweep's Series declaration. Nil yields no samples.
	Values func(cluster.Result) map[string]float64
}

// Result is the machine-readable outcome of one executed point.
type Result struct {
	ID       string
	X        float64
	Seed     int64              // the seed the job actually ran with
	Values   map[string]float64 // named figure-of-merit samples
	Modelled time.Duration      // modelled (virtual) elapsed time
	Host     time.Duration      // host wall-clock spent simulating
	Job      cluster.Result     // full job statistics and snapshots
}

// Sweep is an ordered set of points plus the figure frame they fill in.
type Sweep struct {
	// Fig carries the figure identity, axes, X values and notes; Build
	// fills Series from the executed points.
	Fig Figure
	// Series declares the raw series names and their assembly order.
	// A point yielding an undeclared name is a programming bug (panic).
	Series []string
	// Points are the experiments, in declaration order. Execution order
	// is unspecified (host-parallel); result order matches point order.
	Points []Point
	// Post, when non-nil, runs after raw series assembly and may derive
	// or replace series (speedup, efficiency) and append notes. raw maps
	// each declared series name to its assembled samples; rs are the
	// point results in point order.
	Post func(f *Figure, raw map[string][]float64, rs []Result)
}

// Options configures one sweep execution.
type Options struct {
	// Pool bounds the host-parallel points; sharing one pool between
	// sweeps puts one global bound on a whole figure set. nil means
	// NewPool(0).
	Pool *Pool
}

// Pool bounds concurrent point executions across any number of sweeps.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting at most workers concurrent points
// (0 or negative: GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// SeedFor derives the deterministic seed of a point from its sweep and
// point identifiers — never from iteration order, so reordering or
// parallelising a sweep cannot change any point's modelled results.
func SeedFor(sweepID, pointID string) int64 {
	return fabric.SeedOf("exp", sweepID, pointID)
}

// Execute runs every point and returns their results in point order.
// Points run concurrently on at most the pool's number of host workers;
// each point is one fully isolated cluster.Run.
func (s *Sweep) Execute(opt Options) []Result {
	rs := make([]Result, len(s.Points))
	pool := opt.Pool
	if pool == nil {
		pool = NewPool(0)
	}
	var wg sync.WaitGroup
	for i := range s.Points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pool.sem <- struct{}{}
			defer func() { <-pool.sem }()
			rs[i] = s.runPoint(i)
		}(i)
	}
	wg.Wait()
	return rs
}

func (s *Sweep) runPoint(i int) Result {
	p := s.Points[i]
	cfg := p.Cfg
	if cfg.Seed == 0 {
		cfg.Seed = SeedFor(s.Fig.ID, p.ID)
	}
	start := time.Now()
	job := cluster.Run(cfg, p.Main)
	host := time.Since(start)
	var vals map[string]float64
	if p.Values != nil {
		vals = p.Values(job)
	}
	return Result{
		ID: p.ID, X: p.X, Seed: cfg.Seed, Values: vals,
		Modelled: job.Elapsed, Host: host, Job: job,
	}
}

// Build assembles the executed points into the sweep's figure: one series
// per declared name, samples aligned to Fig.X by each point's X value,
// then the Post hook (if any) for derived series and notes.
func (s *Sweep) Build(rs []Result) Figure {
	f := s.Fig
	f.X = append([]float64(nil), s.Fig.X...)
	f.Notes = append([]string(nil), s.Fig.Notes...)
	f.Series = append([]Series(nil), s.Fig.Series...)
	raw := make(map[string][]float64, len(s.Series))
	for _, name := range s.Series {
		raw[name] = make([]float64, len(f.X))
	}
	for _, r := range rs {
		xi := indexOfX(f.X, r.X)
		if xi < 0 {
			panic(fmt.Sprintf("exp: sweep %s point %q has x=%v outside the figure axis %v",
				f.ID, r.ID, r.X, f.X))
		}
		for name, v := range r.Values {
			ys, ok := raw[name]
			if !ok {
				panic(fmt.Sprintf("exp: sweep %s point %q yields undeclared series %q",
					f.ID, r.ID, name))
			}
			ys[xi] = v
		}
	}
	for _, name := range s.Series {
		f.Series = append(f.Series, Series{Name: name, Y: raw[name]})
	}
	if s.Post != nil {
		s.Post(&f, raw, rs)
	}
	return f
}

func indexOfX(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// Speedup returns each sample divided by base — the strong-scaling
// speedup math shared by the Gauss–Seidel and miniAMR figures.
func Speedup(ys []float64, base float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y / base
	}
	return out
}

// Efficiency returns ys[i] / (ys[0] * x[i]): the parallel efficiency of a
// strong-scaling series relative to its own first (single-node) point.
func Efficiency(ys, x []float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y / (ys[0] * x[i])
	}
	return out
}
