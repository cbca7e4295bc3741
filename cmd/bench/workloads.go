package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/figures"
	"repro/internal/mpisim"
)

// workload is one named job of the benchmark. The list, the names and the
// reasons are mirrored in BENCHMARK.json (bench_test.go compares them).
type workload struct {
	Name string
	Why  string
	// prepare generates the job from the benchmark seed. With Verify it
	// also computes the serial reference and arms the output oracle; Smoke
	// selects the seconds-sized geometry used by the tests.
	prepare func(childSpec) *job
}

// job is one prepared execution: run is the measured call, check the
// output oracle applied after it (outside the timed region). check may be
// nil; an error is a wrong output. It may also annotate the counts.
type job struct {
	run   func(ph *phases) (counts, error)
	check func(*counts) error
}

// counts are the boundary counts of one job. A deterministic simulator
// must repeat them exactly across repetitions and commits, so they are
// compared, never timed.
type counts struct {
	ElapsedNS int64 `json:"model.elapsed_ns"`
	Messages  int64 `json:"fabric.messages"`
	Bytes     int64 `json:"fabric.bytes"`
	MsgsMPI   int64 `json:"fabric.msgs_mpi"`
	MsgsGASPI int64 `json:"fabric.msgs_gaspi"`
	Tasks     int64 `json:"tasking.tasks"`
	Spawned   int64 `json:"tasking.spawned"`
	Rows      int64 `json:"exp.rows"`
	// DriftRows counts figs_quick rows whose modelled values differ from
	// the committed BENCH_figures.json row of the same identity. Like a
	// model.elapsed_ns off the mode it marks a drift run, not a failure
	// (see accept in main.go).
	DriftRows int64 `json:"exp.drift_rows"`
	// PointHostS is Σ per-point host seconds of a figs_quick run executed
	// with host times on (pool-efficiency pass only; not compared).
	PointHostS float64 `json:"exp.point_host_s"`
}

// structure returns the counts the application's logic fixes — messages,
// bytes, tasks, rows — which every run of a workload must reproduce. The
// modelled time is judged separately (modelOf in main.go).
func (c counts) structure() counts {
	c.ElapsedNS, c.DriftRows, c.PointHostS = 0, 0, 0
	return c
}

// phases records the host-time spans of one cluster.Run from outside: the
// rank main is wrapped, so setup ends when every rank main has been entered
// and teardown starts when the last main has returned.
type phases struct {
	t0          time.Time
	first, last atomic.Int64 // ns since t0
}

func (ph *phases) wrap(ranks int, main func(*cluster.Env)) func(*cluster.Env) {
	enter := startGate(ranks, func() { ph.first.Store(int64(time.Since(ph.t0))) })
	return func(env *cluster.Env) {
		enter()
		main(env)
		now := int64(time.Since(ph.t0))
		for old := ph.last.Load(); now > old && !ph.last.CompareAndSwap(old, now); old = ph.last.Load() {
		}
	}
}

// startGate returns the call every rank main makes first: it blocks until
// all ranks have made it (opened, if not nil, runs once just before they
// are released). cluster.Run registers ranks with the clock one at a time
// as it launches them, so when the launching goroutine stalls mid-loop (a
// GC stop, an OS preemption, the race detector's slowdown) the ranks
// launched so far can all park and the clock advances — or reports a
// deadlock — without the rest (README "Known defects"). A rank waiting at
// the gate is runnable as far as the clock knows, which holds virtual time
// at zero until the launch is complete.
func startGate(ranks int, opened func()) (enter func()) {
	var entered atomic.Int64
	gate := make(chan struct{})
	return func() {
		if entered.Add(1) == int64(ranks) {
			if opened != nil {
				opened()
			}
			close(gate)
		}
		<-gate
	}
}

// clusterJob measures one cluster.Run and reduces its result to counts,
// checking the conservation invariants every run must satisfy.
func clusterJob(cfg cluster.Config, main func(*cluster.Env)) func(*phases) (counts, error) {
	return func(ph *phases) (counts, error) {
		res := cluster.Run(cfg, ph.wrap(cfg.Nodes*cfg.RanksPerNode, main))
		c := counts{
			ElapsedNS: res.Elapsed.Nanoseconds(),
			Messages:  res.Fabric.Messages,
			Bytes:     res.Fabric.Bytes,
			MsgsMPI:   res.Fabric.ByClass[fabric.ClassMPI],
			MsgsGASPI: res.Fabric.ByClass[fabric.ClassGASPI],
		}
		var completed int64
		for _, s := range res.Tasking {
			c.Tasks += s.Submitted
			c.Spawned += s.Spawned
			completed += s.Completed
		}
		switch {
		case c.Messages != c.MsgsMPI+c.MsgsGASPI:
			return c, fmt.Errorf("fabric: %d messages but %d by class", c.Messages, c.MsgsMPI+c.MsgsGASPI)
		case c.Tasks != completed:
			return c, fmt.Errorf("tasking: %d submitted but %d completed", c.Tasks, completed)
		case res.Fabric.Faults != 0:
			return c, fmt.Errorf("fabric: %d faults on a fault-free job", res.Fabric.Faults)
		}
		return c, nil
	}
}

// firstErr keeps the first oracle mismatch reported by any rank main.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func seedOf(name string, seed int64) int64 {
	return fabric.SeedOf(name, strconv.FormatInt(seed, 10))
}

const pollPeriod = 5 * time.Microsecond

var workloads = []workload{
	{
		Name:    "gs_tagaspi_256n",
		Why:     "ROADMAP item 2's target: 256-node task-aware one-sided Gauss-Seidel; vclock, park/unpark, tasking, polling, tagaspi and gaspisim do the work, fabric and kernels ~1%",
		prepare: prepareGSTAGASPI,
	},
	{
		Name:    "gs_mpionly_256n",
		Why:     "same app, fabric and vclock used the other way: 2,048 blocking ranks, mpisim matching and lock, no tasking/core/tagaspi/gaspisim; a tasking or polling change must not move it",
		prepare: prepareGSMPIOnly,
	},
	{
		Name:    "incast_mesh_64n",
		Why:     "63-to-1 incast over a 2D mesh: few goroutines, so routed per-hop fabric stages, link resources, mpisim posted-queue matching and payload copies dominate instead of vclock",
		prepare: prepareIncast,
	},
	{
		Name:    "amr_tagaspi_8n",
		Why:     "miniAMR over TAMPI+TAGASPI: app pack/unpack, memory views and the allocator dominate and the traffic pattern changes every 5 steps; substrate changes should move it little",
		prepare: prepareAMR,
	},
	{
		Name:    "figs_quick",
		Why:     "the product number (figures -all -quick): over a hundred short jobs, so cluster set-up and tear-down, exp scheduling, collectives, faults, obs and critpath all count",
		prepare: prepareFigs,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gsGeometry is the shared Gauss–Seidel matrix: 64 rows per hybrid rank
// (one block row), so every rank exchanges halos every step.
func gsGeometry(smoke bool) (nodes int, p heat.Params) {
	nodes = 256
	p = heat.Params{Cols: 1024, BlockRows: 64, BlockCols: 64}
	if smoke {
		nodes = 4
		p.Cols = 256
	}
	p.Rows = 64 * nodes * 2
	return nodes, p
}

// gsJob wires one Gauss–Seidel variant to the bit-for-bit oracle: in
// verify mode every rank compares its strip with its rows of heat.Serial.
func gsJob(cfg cluster.Config, p heat.Params, verify bool, variant func(*cluster.Env, heat.Params) []float64) *job {
	p.Verify = verify
	if !verify {
		return &job{run: clusterJob(cfg, func(env *cluster.Env) { variant(env, p) })}
	}
	ref := heat.Serial(p)
	ranks := cfg.Nodes * cfg.RanksPerNode
	rp := p.Rows / ranks
	var bad firstErr
	var compared atomic.Int64
	main := func(env *cluster.Env) {
		got := variant(env, p)
		want := ref[(1+int(env.Rank)*rp)*p.Cols:][:rp*p.Cols]
		if len(got) != len(want) {
			bad.set(fmt.Errorf("rank %d: strip of %d values, want %d", env.Rank, len(got), len(want)))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				bad.set(fmt.Errorf("rank %d: value %d is %v, serial reference has %v", env.Rank, i, got[i], want[i]))
				return
			}
		}
		compared.Add(1)
	}
	return &job{
		run: clusterJob(cfg, main),
		check: func(*counts) error {
			if err := bad.get(); err != nil {
				return err
			}
			if n := compared.Load(); n != int64(ranks) {
				return fmt.Errorf("%d of %d strips compared", n, ranks)
			}
			return nil
		},
	}
}

func prepareGSTAGASPI(o childSpec) *job {
	nodes, p := gsGeometry(o.Smoke)
	p.Timesteps = 1
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 2, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true,
		TAMPIPoll: pollPeriod, TAGASPIPoll: pollPeriod,
		Seed: seedOf("gs_tagaspi_256n", o.Seed),
	}
	return gsJob(cfg, p, o.Verify, func(env *cluster.Env, p heat.Params) []float64 {
		g := heat.RunTAGASPI(env, p)
		if !p.Verify {
			return nil
		}
		env.RT.TaskWait()
		return g.Strip()
	})
}

func prepareGSMPIOnly(o childSpec) *job {
	nodes, p := gsGeometry(o.Smoke)
	p.Timesteps, p.BlockRows, p.BlockCols = 2, 0, 128
	if o.Smoke {
		p.BlockCols = 64
	}
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 8, CoresPerRank: 1,
		Profile: fabric.ProfileOmniPath(),
		Seed:    seedOf("gs_mpionly_256n", o.Seed),
	}
	return gsJob(cfg, p, o.Verify, func(env *cluster.Env, p heat.Params) []float64 {
		g := heat.RunMPIOnly(env, p)
		if !p.Verify {
			return nil
		}
		return g.Strip()
	})
}

// incastByte is byte j of the k-th message of sender s: the per-(sender,k)
// payload pattern the receiver checks.
func incastByte(seed int64, s, k, j int) byte {
	return byte(uint64(seed)*0x9E3779B97F4A7C15>>56) + byte(s*131+k*31+j)
}

// prepareIncast builds the hotspot figure's two-sided pattern on public
// mpisim calls: every rank but 0 pushes msgs non-blocking sends at rank 0,
// which pre-posts every receive into its own buffer, then waits for all.
func prepareIncast(o childSpec) *job {
	seed, verify := o.Seed, o.Verify
	nodes, msgs, size := 64, 512, 4<<10
	if o.Smoke {
		nodes, msgs = 9, 16
	}
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 1, CoresPerRank: 1,
		Profile: fabric.ProfileOmniPath(),
		Shape:   fabric.ShapeMesh2D,
		Seed:    seedOf("incast_mesh_64n", seed),
	}
	var bad firstErr
	checked := false
	main := func(env *cluster.Env) {
		r, P := int(env.Rank), env.Ranks()
		mpi := env.MPI
		if r == 0 {
			buf := make([]byte, (P-1)*msgs*size)
			reqs := make([]*mpisim.Request, 0, (P-1)*msgs)
			for k := 0; k < msgs; k++ {
				for s := 1; s < P; s++ {
					off := ((s-1)*msgs + k) * size
					reqs = append(reqs, mpi.Irecv(buf[off:off+size], mpisim.Rank(s), k))
				}
			}
			mpi.Waitall(reqs)
			if !verify {
				return
			}
			for s := 1; s < P; s++ {
				for k := 0; k < msgs; k++ {
					got := buf[((s-1)*msgs+k)*size:][:size]
					for j := range got {
						if want := incastByte(seed, s, k, j); got[j] != want {
							bad.set(fmt.Errorf("message (%d,%d) byte %d is %#x, want %#x", s, k, j, got[j], want))
							return
						}
					}
				}
			}
			checked = true
			return
		}
		// The timed mode reuses one send buffer, as the hotspot figure
		// does; the oracle needs every message's bytes distinct and alive
		// until injection, so verify mode gives each message its own.
		buf := make([]byte, size)
		if verify {
			buf = make([]byte, msgs*size)
			for k := 0; k < msgs; k++ {
				for j := 0; j < size; j++ {
					buf[k*size+j] = incastByte(seed, r, k, j)
				}
			}
		}
		reqs := make([]*mpisim.Request, 0, msgs)
		for k := 0; k < msgs; k++ {
			b := buf[:size]
			if verify {
				b = buf[k*size:][:size]
			}
			reqs = append(reqs, mpi.Isend(b, 0, k))
		}
		mpi.Waitall(reqs)
	}
	j := &job{run: clusterJob(cfg, main)}
	if verify {
		j.check = func(*counts) error {
			if err := bad.get(); err != nil {
				return err
			}
			if !checked {
				return fmt.Errorf("rank 0 never compared its receive buffer")
			}
			return nil
		}
	}
	return j
}

func prepareAMR(o childSpec) *job {
	verify := o.Verify
	nodes := 8
	p := miniamr.Params{
		Grid: [3]int{4, 4, 2}, Cells: 8, Vars: 10,
		Steps: 40, RefineEvery: 5, MaxLevel: 1, Radius: 0.5,
		Verify: verify,
	}
	if o.Smoke {
		nodes = 2
		p.Grid, p.Cells, p.Vars, p.Steps = [3]int{2, 2, 2}, 4, 4, 10
	}
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 2, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
		TAMPIPoll: pollPeriod, TAGASPIPoll: pollPeriod,
		Seed: seedOf("amr_tagaspi_8n", o.Seed),
	}
	ranks := cfg.Nodes * cfg.RanksPerNode
	epochs := p.Epochs(ranks)
	if !verify {
		return &job{run: clusterJob(cfg, func(env *cluster.Env) { miniamr.RunTAGASPI(env, p, epochs) })}
	}
	ref := miniamr.Serial(p)
	outs := make([]miniamr.Output, ranks) // each rank writes its own slot
	main := func(env *cluster.Env) { outs[env.Rank] = miniamr.RunTAGASPI(env, p, epochs) }
	return &job{
		run: clusterJob(cfg, main),
		check: func(*counts) error {
			seen := 0
			for r, out := range outs {
				for leaf, got := range out.Blocks {
					want, ok := ref[leaf]
					if !ok || len(got) != len(want) {
						return fmt.Errorf("rank %d: leaf %+v has no matching serial block", r, leaf)
					}
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("rank %d leaf %+v: value %d is %v, serial reference has %v", r, leaf, i, got[i], want[i])
						}
					}
					seen++
				}
			}
			if seen != len(ref) {
				return fmt.Errorf("%d leaves gathered, serial reference has %d", seen, len(ref))
			}
			return nil
		},
	}
}

// prepareFigs regenerates figure sets the way `figures -all -quick` does:
// every generator in flight at once, all points through one shared pool.
// The seed does not enter: exp derives every point's seed from its ids, and
// the rows must equal the committed BENCH_figures.json. HostTimes (the
// pool-efficiency pass) makes the sinks keep per-point host times; the
// timed mode leaves them out, as `-json-host=false` does.
func prepareFigs(o childSpec) *job {
	ids := figures.IDs()
	if o.Smoke {
		ids = []string{"rma", "onready"}
	}
	gens := figures.All()
	var rows []exp.Row
	run := func(ph *phases) (counts, error) {
		ph.first.Store(1) // no rank main to hook or gate: the whole call is main
		pool := exp.NewPool(runtime.GOMAXPROCS(0))
		sinks := make([]*exp.Sink, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			sinks[i] = &exp.Sink{IncludeHost: o.HostTimes}
			wg.Add(1)
			go func(gen figures.Generator, sink *exp.Sink) {
				defer wg.Done()
				gen(figures.Opts{Preset: figures.Quick, Exec: exp.Options{Pool: pool}, Sink: sink})
			}(gens[id], sinks[i])
		}
		wg.Wait()
		ph.last.Store(int64(time.Since(ph.t0)))
		var c counts
		type point struct {
			fig  string
			seed int64
		}
		seen := map[point]bool{}
		for _, s := range sinks {
			for _, row := range s.Rows() {
				if pt := (point{row.Fig, row.Seed}); !seen[pt] {
					seen[pt] = true
					c.ElapsedNS += int64(row.ModelledMS * 1e6)
					c.PointHostS += row.HostMS / 1e3
				}
				row.HostMS = 0
				rows = append(rows, row)
			}
		}
		c.Rows = int64(len(rows))
		return c, nil
	}
	// A row whose identity differs from the committed one is a wrong
	// output; one whose modelled values differ is counted as drift.
	check := func(c *counts) error {
		want, err := committedRows(ids)
		if err != nil {
			return err
		}
		if len(rows) != len(want) {
			return fmt.Errorf("%d rows, BENCH_figures.json has %d for these figures", len(rows), len(want))
		}
		for i := range want {
			got := rows[i]
			if got.Fig != want[i].Fig || got.Series != want[i].Series || got.X != want[i].X || got.Seed != want[i].Seed {
				return fmt.Errorf("row %d is %+v, BENCH_figures.json has %+v", i, got, want[i])
			}
			if got != want[i] {
				c.DriftRows++
			}
		}
		return nil
	}
	return &job{run: run, check: check}
}

// committedRows reads the committed rows of the given figures, host_ms
// zeroed, in file order.
func committedRows(ids []string) ([]exp.Row, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCH_figures.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows []exp.Row `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCH_figures.json: %w", err)
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var rows []exp.Row
	for _, row := range doc.Rows {
		if want[row.Fig] {
			row.HostMS = 0
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory: the checkout root under `go run`, two
// levels up under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}
