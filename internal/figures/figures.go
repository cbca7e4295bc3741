// Package figures regenerates every figure of the paper's evaluation
// (§VI): the Gauss–Seidel strong scaling and block-size sweep (Figs. 9,
// 10), the miniAMR strong scaling and variables sweep (Figs. 11, 12), the
// Streaming block-size sweeps on both machine profiles (Fig. 13), and the
// in-text observations (the MPI-time blowup of §VI-C, the polling-period
// tuning of §VI, the RMA-notification round-trip of §III, and the onready
// ablation of §V-A).
//
// Every figure is expressed as an exp.Sweep — a declarative set of
// independent simulation points — and executed by the exp engine, which
// runs points host-parallel on a bounded worker pool and reduces them to
// series with the shared speedup/efficiency math. Modelled results are
// identical at any worker count (seeds derive from point ids, each point
// is one isolated discrete-event simulation); only host wall-clock
// changes.
//
// Figures run in virtual time on scaled-down inputs (documented per figure
// and in EXPERIMENTS.md): node counts and matrices are reduced by a
// constant factor relative to the paper, preserving the per-rank work,
// blocks-per-core and bytes-per-update ratios that determine each figure's
// shape. The Quick preset shrinks them further for tests and benchmarks.
package figures

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
)

// Preset selects the experiment scale.
type Preset int

// Presets.
const (
	// Quick is a fast sanity scale for tests and benchmarks.
	Quick Preset = iota
	// Full is the default reproduction scale (minutes of host time).
	Full
	// Scale is the paper-scale strong-scaling preset: the Fig. 9 sweep runs
	// out to the paper's 256 nodes (2048 simulated MPI-only ranks per
	// point) and Fig. 10 at its 128-node evaluation scale. Only the
	// Gauss–Seidel figures (9, 10) honour it — `figures -scale` selects
	// exactly those — and the sweep exists to exercise the host substrate
	// (ARCHITECTURE.md "Sharded host substrate"): bounded worker pools and
	// a fabric with no goroutines keep the host goroutine count linear in
	// ranks while rank counts reach the thousands.
	Scale
)

// Figure and Series are the exp engine's assembled-figure types; aliased
// so figure consumers need not import the engine.
type (
	Figure = exp.Figure
	Series = exp.Series
)

// Opts configures one generator run: the experiment scale, the host-side
// execution bound, and an optional sink collecting machine-readable rows.
// The zero value is the Quick preset executed on GOMAXPROCS workers.
type Opts struct {
	Preset Preset
	// Exec bounds the host-parallel experiment points (NewPool(1) is
	// fully sequential; a shared Pool spans several generators).
	Exec exp.Options
	// Sink, when non-nil, receives every executed point as structured
	// rows for BENCH_*.json output.
	Sink *exp.Sink
}

// runSweep executes a sweep under the generator options: results feed the
// sink (if any), then assemble into the figure.
func runSweep(o Opts, sw *exp.Sweep) Figure {
	rs := sw.Execute(o.Exec)
	if o.Sink != nil {
		o.Sink.Add(sw, rs)
	}
	return sw.Build(rs)
}

// Generator produces one figure under the given options.
type Generator func(Opts) Figure

// All maps figure ids to their generators.
func All() map[string]Generator {
	return map[string]Generator{
		"9":       Fig09GaussSeidelScaling,
		"10":      Fig10GaussSeidelBlocksize,
		"11":      Fig11MiniAMRScaling,
		"12":      Fig12MiniAMRVariables,
		"13a":     Fig13aStreamingOmniPath,
		"13b":     Fig13bStreamingInfiniBand,
		"lock":    AblationMPILockBlowup,
		"poll":    AblationPollingPeriod,
		"rma":     AblationRMANotification,
		"onready": AblationOnready,
		"faults":  AblationFaultInjection,
		"blame":   AblationCritPathBlame,
		"coll":    FigCollectives,
		"hotspot": FigHotspot,
	}
}

// IDs returns the figure ids in render order.
func IDs() []string {
	ids := make([]string, 0)
	for id := range All() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Keep the paper's order first.
	// New figures append at the end so the committed BENCH_figures.json
	// row prefix of earlier figures stays stable across additions.
	order := []string{"9", "10", "11", "12", "13a", "13b", "coll", "lock", "poll", "rma", "onready", "faults", "blame", "hotspot"}
	return order[:len(ids)]
}

// geoScale is the rank-count reduction factor relative to the paper:
// Marenostrum4's 48 cores/node are modelled as 8 simulated cores/node so
// the discrete-event runs stay tractable; all per-core ratios preserved.
const (
	coresPerNode  = 8 // paper: 48 (MN4), 64 (CTE-AMD)
	hybridRanks   = 2 // ranks/node for hybrid Gauss-Seidel (paper: 1/socket)
	amrHybridRank = 2 // ranks/node for hybrid miniAMR (paper: 4)
)

// rankPerNode is the layout of the network-bound figures (incast,
// collectives): one rank per node, and hybrid ranks get a small core pool
// for their communication tasks. The polling period matches the hybrid
// Gauss–Seidel figures at this reduced scale.
var rankPerNode = cluster.Geometry{
	MPIRanks: 1, HybridRanks: 1, HybridCores: 2,
	Poll: 5 * time.Microsecond,
}

// variantSeries is the series declaration of a figure with one value per
// variant.
func variantSeries() []string {
	names := make([]string, len(cluster.Variants))
	for i, v := range cluster.Variants {
		names[i] = v.String()
	}
	return names
}

func doubling(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
