// Package cluster assembles and runs a simulated multi-node job: the
// virtual clock, the fabric, one MPI and one GASPI process per rank, and —
// for hybrid configurations — a per-rank tasking runtime with the
// Task-Aware MPI and Task-Aware GASPI libraries, mirroring the software
// architecture of the paper's Figure 2.
//
// A job is described by a Config (geometry, machine profile, library
// selection, polling periods) and a rank main function; Run launches every
// rank concurrently, waits for all of them, tears the job down, and
// returns the modelled elapsed time along with per-rank statistics.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/tagaspi"
	"repro/internal/tampi"
	"repro/internal/tasking"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// Config describes one simulated job.
type Config struct {
	Nodes        int            // compute nodes
	RanksPerNode int            // processes per node
	CoresPerRank int            // cores (worker slots) per process
	Profile      fabric.Profile // machine cost model

	// Shape selects the interconnect topology (fabric.Shape). The zero
	// value is fabric.ShapeFlat — the original single-hop model with
	// unchanged results; mesh and fat-tree route every inter-node
	// message over shared links with per-link serialization capacity, so
	// congestion emerges from contention (DESIGN.md §13).
	Shape fabric.Shape

	// Library selection. The MPI and GASPI worlds always exist (they cost
	// nothing when unused); these control the task-aware layers and their
	// polling tasks.
	WithTasking bool // create the per-rank tasking runtime
	WithTAMPI   bool // requires WithTasking
	WithTAGASPI bool // requires WithTasking

	// Polling periods (§V-B / §VI). Zero selects the library's default
	// (tampi/tagaspi.DefaultPollInterval); a negative period dedicates the
	// poller, which then polls back-to-back.
	TAMPIPoll   time.Duration
	TAGASPIPoll time.Duration

	// Faults, when enabled, installs a fault-injection plan on the fabric
	// (fabric.FaultPlan): per-class drop rates on inter-node injections,
	// every drop derived deterministically from Seed. GASPI-class
	// failures surface through the queue error state and are absorbed by
	// TAGASPI's retry policy; MPI-class failures retransmit transparently.
	// The zero value injects nothing and leaves every path untouched.
	Faults fabric.FaultPlan

	// Recorder, when non-nil, instruments every layer of the job (fabric,
	// MPI, GASPI, tasking runtimes) with the observability subsystem of
	// package obs. A typical caller passes obs.NewCollector(ranks) and
	// writes its trace and metrics after Run returns. Nil (the default)
	// keeps every hot path on its uninstrumented single-branch fast path.
	Recorder *obs.Collector

	Seed int64
}

// SubmitOverhead and DispatchOverhead are the per-task modelled costs Run
// charges on every hybrid job with a nonzero profile: the sub-microsecond
// creation and scheduling costs of a tuned OmpSs-2 runtime, which drive
// the small-block tasking overheads the paper observes in Figs. 10 and 12.
// Under the zero profile tasks cost nothing.
const (
	SubmitOverhead   = 150 * time.Nanosecond
	DispatchOverhead = 250 * time.Nanosecond
)

// queues is the number of GASPI queues per process.
const queues = 4

// Env is the per-rank environment handed to the rank main.
type Env struct {
	Rank    fabric.Rank
	Cfg     *Config // the job's one Config, shared by every rank (read-only)
	Clk     *vclock.VirtualClock
	Fab     *fabric.Fabric
	MPI     *mpisim.Proc
	GASPI   *gaspisim.Proc
	RT      *tasking.Runtime // nil unless Cfg.WithTasking
	TAMPI   *tampi.Library   // nil unless Cfg.WithTAMPI
	TAGASPI *tagaspi.Library // nil unless Cfg.WithTAGASPI
}

// Ranks returns the total rank count of the job.
func (e *Env) Ranks() int { return e.Fab.Topology().Ranks() }

// CostOf converts element updates into modelled compute time using the
// profile's per-core rate.
func (e *Env) CostOf(elements float64) time.Duration {
	hz := e.Cfg.Profile.CoreHz
	if hz <= 0 || e.Cfg.Profile.Zero() {
		return 0
	}
	return time.Duration(elements / hz * float64(time.Second))
}

// Result aggregates a finished job.
type Result struct {
	Elapsed time.Duration         // modelled wall time of the whole job
	Fabric  fabric.Stats          // traffic totals
	MPILock []vsync.ResourceStats // per-rank library-lock statistics
	Tasking []tasking.Stats       // per-rank runtime statistics (hybrid only)

	// NIC is the per-node NIC port utilisation (injection/delivery
	// serialization), in node order.
	NIC []fabric.NICSnapshot
	// Links is the per-link utilisation of a shaped topology
	// (Config.Shape), in canonical link order; nil for flat jobs. Waited
	// is the emergent backpressure signal: total time messages queued at
	// the link's entry behind other traffic.
	Links []fabric.LinkStats
	// Snapshots is every component's statistics in the common obs shape:
	// the fabric first, then per-rank MPI, GASPI, (hybrid only) tasking
	// and (TAGASPI only) retry-policy snapshots.
	Snapshots []obs.Snapshot

	// Blame is the critical-path blame report of the run, attributing the
	// makespan to compute, fabric transit, notify wait, MPI lock wait,
	// retry backoff and scheduler idle (DESIGN.md §10). It is computed
	// only on instrumented runs — when Config.Recorder has a live Tracer —
	// and is nil otherwise, or when the trace could not be analysed.
	Blame *critpath.Report
}

// TotalMPITime sums Busy+Waited over all ranks: the paper's "total time
// inside MPI among all threads" metric (§VI-C).
func (r Result) TotalMPITime() time.Duration {
	var t time.Duration
	for _, s := range r.MPILock {
		t += s.Busy + s.Waited
	}
	return t
}

// Run executes main as every rank of the configured job and returns the
// job statistics. It blocks until all ranks return and the job is torn
// down. The caller must not be a goroutine registered with the job clock.
func Run(cfg Config, main func(*Env)) Result {
	if cfg.Nodes <= 0 || cfg.RanksPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid geometry %d x %d", cfg.Nodes, cfg.RanksPerNode))
	}
	if cfg.CoresPerRank <= 0 {
		cfg.CoresPerRank = 1
	}
	if (cfg.WithTAMPI || cfg.WithTAGASPI) && !cfg.WithTasking {
		panic("cluster: task-aware libraries require WithTasking")
	}
	tcfg := tasking.Config{Cores: cfg.CoresPerRank}
	if !cfg.Profile.Zero() {
		tcfg.SubmitOverhead, tcfg.DispatchOverhead = SubmitOverhead, DispatchOverhead
	}
	if cfg.TAMPIPoll == 0 {
		cfg.TAMPIPoll = tampi.DefaultPollInterval
	}
	if cfg.TAGASPIPoll == 0 {
		cfg.TAGASPIPoll = tagaspi.DefaultPollInterval
	}

	clk := vclock.NewVirtual()
	topo := fabric.NewShapedTopology(cfg.Shape, cfg.Nodes, cfg.RanksPerNode)
	fab := fabric.New(clk, topo, cfg.Profile)
	if cfg.Faults.Enabled() {
		fab.SetFaultPlan(cfg.Faults, fabric.FaultPlaneSeed(cfg.Seed))
	}
	mw := mpisim.NewWorld(fab, cfg.Seed)
	gw := gaspisim.NewWorld(fab, queues, fabric.GASPIWorldSeed(cfg.Seed))
	if cfg.Recorder != nil {
		fab.SetRecorder(cfg.Recorder)
		mw.SetRecorder(cfg.Recorder)
		gw.SetRecorder(cfg.Recorder)
	}

	n := topo.Ranks()
	envs := make([]*Env, n)
	// Rank environments are built before any main starts, in parallel
	// batches on a bounded set of host workers: at 10k-rank scale the
	// per-rank setup (the tasking runtime) is pure host work with no
	// modelled time, and doing it inside 10k freshly spawned rank
	// goroutines serialized badly behind the scheduler. Setup touches only
	// rank-private state, so batch construction is race-free.
	forEachRank(n, func(r int) {
		env := &Env{
			Rank: fabric.Rank(r), Cfg: &cfg, Clk: clk, Fab: fab,
			MPI: mw.Proc(fabric.Rank(r)), GASPI: gw.Proc(fabric.Rank(r)),
		}
		if cfg.WithTasking {
			env.RT = tasking.New(clk, tcfg)
			// Also uninstrumented: the rank labels the runtime's snapshot.
			env.RT.SetRecorder(cfg.Recorder, r)
		}
		envs[r] = env
	})
	// The clock learns of every rank main before anything starts, and the
	// polling services start next, from this goroutine, in rank order and
	// TAMPI before TAGASPI: no virtual time passes — and the services draw
	// their first timer sequences in one fixed order — before the whole job
	// exists.
	start := clk.Launch(n)
	for _, env := range envs {
		if cfg.WithTAMPI {
			env.TAMPI = tampi.New(env.MPI, env.RT, cfg.TAMPIPoll)
		}
		if cfg.WithTAGASPI {
			env.TAGASPI = tagaspi.New(env.GASPI, env.RT, cfg.TAGASPIPoll)
			if cfg.Recorder != nil {
				env.TAGASPI.SetRecorder(cfg.Recorder)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(n)
	start(func(r int) {
		defer wg.Done()
		env := envs[r]
		main(env)
		if env.RT != nil {
			env.RT.TaskWait()
		}
		env.MPI.Barrier()
		if env.RT != nil {
			env.RT.Shutdown()
		}
	})
	wg.Wait()
	res := Result{Elapsed: clk.Now(), Fabric: fab.Stats()}
	// Teardown mirrors setup: per-rank statistics land in preallocated
	// indexed slots, so the collection parallelises without perturbing the
	// deterministic rank order of the result.
	res.MPILock = make([]vsync.ResourceStats, n)
	if cfg.WithTasking {
		res.Tasking = make([]tasking.Stats, n)
	}
	mpiSnaps := make([]obs.Snapshot, n)
	gaspiSnaps := make([]obs.Snapshot, n)
	var taskSnaps, tampiSnaps, tagaspiSnaps []obs.Snapshot
	if cfg.WithTasking {
		taskSnaps = make([]obs.Snapshot, n)
	}
	if cfg.WithTAMPI {
		tampiSnaps = make([]obs.Snapshot, n)
	}
	if cfg.WithTAGASPI {
		tagaspiSnaps = make([]obs.Snapshot, n)
	}
	forEachRank(n, func(r int) {
		res.MPILock[r] = mw.Proc(fabric.Rank(r)).LockStats()
		mpiSnaps[r] = mw.Proc(fabric.Rank(r)).Snapshot()
		gaspiSnaps[r] = gw.Proc(fabric.Rank(r)).Snapshot()
		if envs[r] != nil && envs[r].RT != nil {
			res.Tasking[r] = envs[r].RT.Stats()
			taskSnaps[r] = envs[r].RT.Snapshot()
		}
		if envs[r] != nil && envs[r].TAMPI != nil {
			tampiSnaps[r] = envs[r].TAMPI.Snapshot()
		}
		if envs[r] != nil && envs[r].TAGASPI != nil {
			tagaspiSnaps[r] = envs[r].TAGASPI.Snapshot()
		}
	})
	res.NIC = fab.NICSnapshots()
	res.Links = fab.LinkSnapshots()
	res.Snapshots = append(res.Snapshots, fab.Snapshot())
	res.Snapshots = append(res.Snapshots, mpiSnaps...)
	res.Snapshots = append(res.Snapshots, gaspiSnaps...)
	if cfg.WithTasking {
		for r := 0; r < n; r++ {
			if envs[r] != nil && envs[r].RT != nil {
				res.Snapshots = append(res.Snapshots, taskSnaps[r])
			}
		}
	}
	if cfg.WithTAMPI {
		for r := 0; r < n; r++ {
			if envs[r] != nil && envs[r].TAMPI != nil {
				res.Snapshots = append(res.Snapshots, tampiSnaps[r])
			}
		}
	}
	if cfg.WithTAGASPI {
		for r := 0; r < n; r++ {
			if envs[r] != nil && envs[r].TAGASPI != nil {
				res.Snapshots = append(res.Snapshots, tagaspiSnaps[r])
			}
		}
	}
	fab.Close()
	if col := cfg.Recorder; col != nil && col.Tracer != nil {
		// The fabric and the pollers have drained (fab.Close, RT.Shutdown), so
		// the event set is final. Analysis failures (an empty measurement
		// window, say) leave Blame nil rather than failing the run.
		if rep, err := critpath.Analyze(col.Tracer.Events()); err == nil {
			res.Blame = rep
		}
	}
	return res
}
