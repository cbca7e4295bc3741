// Command app runs one of the paper's three applications (§VI) on the
// simulated cluster, as MPI-Only, TAMPI or TAGASPI, and reports its
// modelled throughput:
//
//	app heat        Gauss–Seidel heat equation (§VI-A)
//	app miniamr     adaptive-mesh-refinement proxy (§VI-B): total and
//	                no-refinement (NR) throughput
//	app streaming   Streaming pipeline (§VI-C)
//
// Example:
//
//	app heat -variant tagaspi -nodes 8 -rows 2048 -cols 2048 -steps 10 -block 64
//	app heat -variant mpi -nodes 4 -verify
//	app heat -variant tagaspi -faults 0.05    # 5% drop rate on inter-node links
//	app miniamr -variant tagaspi -nodes 8 -vars 20
//	app streaming -variant tampi -nodes 4 -block 256   # the §VI-C collapse
//
// Every subcommand takes the shared flags -variant, -nodes, -rpn, -cores,
// -mpi-rpn, -profile, -poll, -trace, -metrics and -blame, with per-app
// defaults, plus its own size flags. The report holds modelled quantities
// only, so two runs with the same flags print the same bytes; host time
// is cmd/bench's measurement.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "app: %v\n", err)
	os.Exit(exitCode(err))
}

// An app defines one subcommand's own flags on fs. It returns those that
// must be > 0, by name, and the function that builds the job once the
// flags are parsed.
type app func(fs *flag.FlagSet) (sizes map[string]*int, build builder)

// A builder checks an app's remaining flags and builds the job of variant
// v on nodes nodes of the given machine.
type builder func(v cluster.Variant, nodes int, prof fabric.Profile, g cluster.Geometry) (job, error)

// command is a subcommand: its seed, its defaults for the shared flags and
// its app.
type command struct {
	seed     int64
	defaults shared
	app      app
}

var commands = map[string]command{
	"heat": {1, shared{variant: "tagaspi", nodes: 4, rpn: 2, cores: 4, mpiRPN: 8,
		profile: "omnipath", poll: 10 * time.Microsecond}, heatApp},
	"miniamr": {2, shared{variant: "tagaspi", nodes: 4, rpn: 2, cores: 4, mpiRPN: 8,
		profile: "omnipath", poll: 10 * time.Microsecond}, miniamrApp},
	"streaming": {3, shared{variant: "tagaspi", nodes: 4, rpn: 1, cores: 8, mpiRPN: 8,
		profile: "infiniband", poll: time.Microsecond}, streamingApp},
}

// shared holds the flags every subcommand takes.
type shared struct {
	variant, profile          string
	nodes, rpn, cores, mpiRPN int
	poll                      time.Duration
	tracePath, blamePath      string
	metrics                   bool
}

// declare defines the shared flags, with s's values as their defaults.
func (s *shared) declare(fs *flag.FlagSet) {
	fs.StringVar(&s.variant, "variant", s.variant, "mpi | tampi | tagaspi")
	fs.IntVar(&s.nodes, "nodes", s.nodes, "compute nodes (streaming: pipeline stages)")
	fs.IntVar(&s.rpn, "rpn", s.rpn, "ranks per node (hybrid variants)")
	fs.IntVar(&s.cores, "cores", s.cores, "cores per rank (hybrid variants)")
	fs.IntVar(&s.mpiRPN, "mpi-rpn", s.mpiRPN, "ranks per node (mpi variant)")
	fs.StringVar(&s.profile, "profile", s.profile, "omnipath | infiniband | ideal")
	fs.DurationVar(&s.poll, "poll", s.poll, "task-aware polling period")
	fs.StringVar(&s.tracePath, "trace", "",
		"write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
	fs.BoolVar(&s.metrics, "metrics", false,
		"print latency histograms and per-component statistics after the run")
	fs.StringVar(&s.blamePath, "blame", "",
		"write the critical-path blame report to this file (\"-\" for stdout)")
}

// job is one parsed invocation.
type job struct {
	shared
	cfg  cluster.Config
	main func(env *cluster.Env)
	// report prints the modelled results of the finished run, and returns
	// an error if the run's output fails its check.
	report func(w io.Writer, variant string, res cluster.Result) error
}

// usageError is a bad command line; the program exits with status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode is the process status for an error run returned.
func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// run executes one command line (without the program name), writing the
// report to stdout.
func run(args []string, stdout io.Writer) error {
	j, err := parse(args)
	if err != nil {
		return usageError{err}
	}
	col := j.collector(j.cfg.Nodes * j.cfg.RanksPerNode)
	if col != nil {
		j.cfg.Recorder = col
	}
	res := cluster.Run(j.cfg, j.main)
	checkErr := j.report(stdout, j.variant, res)
	if err := j.finish(stdout, col, res); err != nil {
		return fmt.Errorf("observability output: %w", err)
	}
	return checkErr
}

// parse resolves a command line into a job, or says what is wrong with it.
func parse(args []string) (*job, error) {
	const want = "heat | miniamr | streaming"
	if len(args) == 0 {
		return nil, fmt.Errorf("missing subcommand (want %s)", want)
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return nil, fmt.Errorf("unknown subcommand %q (want %s)", args[0], want)
	}
	s := cmd.defaults
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	s.declare(fs)
	sizes, build := cmd.app(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	vals := map[string]int{"nodes": s.nodes, "rpn": s.rpn, "cores": s.cores, "mpi-rpn": s.mpiRPN}
	for name, p := range sizes {
		vals[name] = *p
	}
	if err := check(vals, 1, "> 0"); err != nil {
		return nil, err
	}
	if s.poll <= 0 {
		// cluster.Config reads zero as the library default and a negative
		// period as a dedicated poller; neither is what -poll says.
		return nil, fmt.Errorf("-poll must be > 0 (got %v)", s.poll)
	}
	v, err := cluster.ParseVariant(s.variant)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(s.profile)
	if err != nil {
		return nil, err
	}
	j, err := build(v, s.nodes, prof, cluster.Geometry{
		MPIRanks: s.mpiRPN, HybridRanks: s.rpn, HybridCores: s.cores, Poll: s.poll,
	})
	if err != nil {
		return nil, err
	}
	j.shared, j.cfg.Seed = s, cmd.seed
	return &j, nil
}

func parseProfile(name string) (fabric.Profile, error) {
	switch name {
	case "omnipath":
		return fabric.ProfileOmniPath(), nil
	case "infiniband":
		return fabric.ProfileInfiniBand(), nil
	case "ideal":
		return fabric.ProfileIdeal(), nil
	}
	return fabric.Profile{}, fmt.Errorf("unknown profile %q (want omnipath | infiniband | ideal)", name)
}

// check returns an error naming every flag in vals below min, in flag-name
// order so the message is deterministic, or nil if there is none. The
// simulators decompose their problem by these values, and a zero block size
// or step count would otherwise fail far from the flag that caused it.
func check(vals map[string]int, min int, want string) error {
	var bad []string
	for name, v := range vals {
		if v < min {
			bad = append(bad, fmt.Sprintf("-%s must be %s (got %d)", name, want, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return errors.New(strings.Join(bad, "; "))
}

// collector builds the recorder for a job of ranks ranks, or returns nil
// when no observability output was requested: the nil keeps every
// instrumentation site on its single-branch fast path.
func (s *shared) collector(ranks int) *obs.Collector {
	if s.tracePath == "" && s.blamePath == "" && !s.metrics {
		return nil
	}
	c := &obs.Collector{}
	if s.tracePath != "" || s.blamePath != "" {
		c.Tracer = obs.NewTracer(ranks)
	}
	if s.metrics {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// finish writes the requested observability outputs: the trace file, the
// critical-path blame report, then (on w) the latency histograms, the
// per-component snapshots and the per-node NIC utilisation.
func (s *shared) finish(w io.Writer, c *obs.Collector, res cluster.Result) error {
	if c == nil {
		return nil
	}
	if s.tracePath != "" {
		if err := c.Tracer.WriteFile(s.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d events written to %s\n", c.Tracer.Len(), s.tracePath)
	}
	if s.blamePath != "" {
		if err := writeBlame(w, s.blamePath, res); err != nil {
			return err
		}
	}
	if s.metrics {
		c.Metrics.Write(w)
		obs.WriteSnapshots(w, res.Snapshots)
		writeNICUtilisation(w, res)
	}
	return nil
}

// writeBlame writes the critical-path report to path, or to w for "-".
func writeBlame(w io.Writer, path string, res cluster.Result) error {
	if res.Blame == nil {
		return errors.New("blame: no critical-path report (run recorded no trace events)")
	}
	if path == "-" {
		return res.Blame.WriteText(w)
	}
	var buf bytes.Buffer
	if err := res.Blame.WriteText(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "blame: critical-path report written to %s\n", path)
	return nil
}

// writeNICUtilisation prints each node's NIC injection/delivery port busy
// fraction over the modelled run: the serialization bottleneck the
// fabric's Resource statistics measure.
func writeNICUtilisation(w io.Writer, res cluster.Result) {
	if res.Elapsed <= 0 || len(res.NIC) == 0 {
		return
	}
	fmt.Fprintf(w, "-- nic utilisation (of %v elapsed)\n", res.Elapsed)
	for _, nic := range res.NIC {
		fmt.Fprintf(w, "   node%-3d tx %5.1f%% (%d msgs, wait %v)   rx %5.1f%% (%d msgs, wait %v)\n",
			nic.Node,
			100*nic.Tx.Busy.Seconds()/res.Elapsed.Seconds(), nic.Tx.Uses, nic.Tx.Waited,
			100*nic.Rx.Busy.Seconds()/res.Elapsed.Seconds(), nic.Rx.Uses, nic.Rx.Waited)
	}
}
