package collectives_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/fabric"
	"repro/internal/obs"
)

const vecLen = 24 // divisible by every tested world size

// fill writes a deterministic pseudo-random vector (LCG over rank and
// salt) whose reduction is order-sensitive in floating point, so any
// backend deviating from the shared combine order breaks bit-identity.
func fill(vec []float64, rank, salt int) {
	s := uint64(rank)*2654435761 + uint64(salt)*40503 + 12345
	for i := range vec {
		s = s*6364136223846793005 + 1442695040888963407
		vec[i] = float64(int64(s>>33))/float64(1<<20) - 1000
	}
}

// backendResults collects, per rank, every output buffer of the
// multi-epoch allreduce sequence runSequence issues.
type backendResults struct {
	allred1 [][]float64
	allred2 [][]float64
	allred3 [][]float64
}

func newComm(t *testing.T, backend string, env *cluster.Env, maxElems int, opts ...collectives.Option) *collectives.Comm {
	t.Helper()
	switch backend {
	case "mpi":
		return collectives.NewMPI(env.MPI, maxElems, opts...)
	case "gaspi":
		c, err := collectives.NewGASPI(env.GASPI, maxElems, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	case "tagaspi":
		c, err := collectives.NewTAGASPI(env.TAGASPI, env.RT, maxElems, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Fatalf("unknown backend %q", backend)
	return nil
}

func backendConfig(backend string, nodes int) cluster.Config {
	cfg := cluster.Config{
		Nodes: nodes, RanksPerNode: 1,
		Profile: fabric.ProfileIdeal(),
		Seed:    42,
	}
	if backend == "tagaspi" {
		cfg.CoresPerRank = 2
		cfg.WithTasking = true
		cfg.WithTAGASPI = true
		cfg.TAGASPIPoll = 5 * time.Microsecond
	}
	return cfg
}

// runSequence issues a multi-epoch allreduce sequence — a sum, a max and
// a sum chained on the max's result, draining after each — so epochs 0 and
// 2 share a staging parity and exercise the ring consumption acks on every
// backend.
func runSequence(t *testing.T, backend string, nodes int) *backendResults {
	t.Helper()
	n := nodes
	res := &backendResults{
		allred1: make([][]float64, n),
		allred2: make([][]float64, n),
		allred3: make([][]float64, n),
	}
	cluster.Run(backendConfig(backend, nodes), func(env *cluster.Env) {
		r := int(env.Rank)
		c := newComm(t, backend, env, vecLen)

		in := make([]float64, vecLen)
		fill(in, r, 1)
		out1 := make([]float64, vecLen)
		c.Allreduce(in, out1, collectives.Sum)
		c.Drain()

		in2 := make([]float64, vecLen)
		fill(in2, r, 2)
		out2 := make([]float64, vecLen)
		c.Allreduce(in2, out2, collectives.Max)
		c.Drain()

		out3 := make([]float64, vecLen)
		c.Allreduce(out2, out3, collectives.Sum) // same parity as epoch 0's ring
		c.Drain()

		res.allred1[r], res.allred2[r], res.allred3[r] = out1, out2, out3
	})
	return res
}

// runOverlapped issues 2n back-to-back allreduces with distinct inputs per
// epoch and drains once at the end — the coll figure's pattern. On the
// task-aware backend every epoch's chain is submitted before any runs, so
// successive chains overlap and both staging parities are reused under
// load. It returns each rank's output of each epoch.
func runOverlapped(t *testing.T, backend string, n int) [][][]float64 {
	t.Helper()
	epochs := 2 * n
	got := make([][][]float64, n)
	cfg := backendConfig(backend, n)
	cfg.Profile = fabric.ProfileOmniPath()
	cluster.Run(cfg, func(env *cluster.Env) {
		r := int(env.Rank)
		c := newComm(t, backend, env, vecLen)
		outs := make([][]float64, epochs)
		for e := range outs {
			in := make([]float64, vecLen)
			fill(in, r, 200+e)
			outs[e] = make([]float64, vecLen)
			c.Allreduce(in, outs[e], collectives.Sum)
		}
		c.Drain()
		got[r] = outs
	})
	return got
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCrossBackendBitIdentical is the DESIGN.md §12 equivalence contract:
// the same allreduce sequence must produce bit-identical results on the
// blocking-MPI, blocking-GASPI and task-aware backends, at world sizes
// covering the even and odd ring cases, both drained after every call and
// overlapped with one drain at the end. scripts/ci.sh runs it under the
// race detector in its go test -race pass.
func TestCrossBackendBitIdentical(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		ref := runSequence(t, "mpi", n)
		// Allreduce results must also agree across ranks.
		for r := 1; r < n; r++ {
			if !bitsEqual(ref.allred1[0], ref.allred1[r]) ||
				!bitsEqual(ref.allred3[0], ref.allred3[r]) {
				t.Fatalf("n=%d: allreduce results differ across ranks", n)
			}
		}
		refOver := runOverlapped(t, "mpi", n)
		for _, backend := range []string{"gaspi", "tagaspi"} {
			got := runSequence(t, backend, n)
			for r := 0; r < n; r++ {
				if !bitsEqual(ref.allred1[r], got.allred1[r]) {
					t.Errorf("n=%d rank %d: %s allreduce(sum) deviates from mpi", n, r, backend)
				}
				if !bitsEqual(ref.allred2[r], got.allred2[r]) {
					t.Errorf("n=%d rank %d: %s allreduce(max) deviates from mpi", n, r, backend)
				}
				if !bitsEqual(ref.allred3[r], got.allred3[r]) {
					t.Errorf("n=%d rank %d: %s chained allreduce deviates from mpi", n, r, backend)
				}
			}
			over := runOverlapped(t, backend, n)
			for r := 0; r < n; r++ {
				for e := range refOver[r] {
					if !bitsEqual(refOver[r][e], over[r][e]) {
						t.Errorf("%s n=%d rank %d epoch %d deviates from mpi under overlap", backend, n, r, e)
					}
				}
			}
		}
	}
}

// traceBytes runs one instrumented task-aware collective sequence and
// returns the serialised trace.
func traceBytes(t *testing.T, backend string) []byte {
	t.Helper()
	const n = 4
	col := obs.NewCollector(n)
	cfg := backendConfig(backend, n)
	cfg.Profile = fabric.ProfileOmniPath()
	cfg.Recorder = col
	cluster.Run(cfg, func(env *cluster.Env) {
		r := int(env.Rank)
		c := newComm(t, backend, env, vecLen,
			collectives.WithRecorder(col), collectives.WithElemCost(env.CostOf(1)))
		in := make([]float64, vecLen)
		fill(in, r, 3)
		out := make([]float64, vecLen)
		c.Allreduce(in, out, collectives.Sum)
		c.Drain()
		out2 := make([]float64, vecLen)
		c.Allreduce(out, out2, collectives.Max)
		c.Drain()
	})
	var buf bytes.Buffer
	if err := col.Tracer.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	return buf.Bytes()
}

// TestInstrumentedTraceDeterminism requires byte-identical traces across
// repeated seeded collective runs on every backend; scripts/ci.sh runs it
// under the race detector in its go test -race pass.
func TestInstrumentedTraceDeterminism(t *testing.T) {
	for _, backend := range []string{"mpi", "gaspi", "tagaspi"} {
		ref := traceBytes(t, backend)
		for i := 0; i < 2; i++ {
			if !bytes.Equal(ref, traceBytes(t, backend)) {
				t.Fatalf("%s: instrumented collective trace diverged on rerun %d", backend, i)
			}
		}
	}
}

// TestDropsMidRing drives an allreduce ring over a fabric that drops 30%
// of inter-node injections of both classes. The task-aware backend must
// absorb the GASPI-class failures through the tagaspi retry policy
// (retries > 0, no gave-ups) and still produce the correct sum; the
// blocking-MPI backend's drops retransmit transparently inside the fabric.
func TestDropsMidRing(t *testing.T) {
	const n = 4
	for _, backend := range []string{"tagaspi", "mpi"} {
		cfg := backendConfig(backend, n)
		cfg.Profile = fabric.ProfileOmniPath()
		cfg.Seed = 11
		cfg.Faults = fabric.FaultPlan{MPIDrop: 0.3, GASPIDrop: 0.3}
		sums := make([][]float64, n)
		retries := make([]float64, n)
		gaveup := make([]float64, n)
		res := cluster.Run(cfg, func(env *cluster.Env) {
			r := int(env.Rank)
			c := newComm(t, backend, env, vecLen)
			in := make([]float64, vecLen)
			for i := range in {
				in[i] = float64(r + 1)
			}
			out := make([]float64, vecLen)
			c.Allreduce(in, out, collectives.Sum)
			c.Drain()
			sums[r] = out
			if env.TAGASPI != nil {
				snap := env.TAGASPI.Snapshot()
				retries[r] = sample(snap, "tagaspi_retries")
				gaveup[r] = sample(snap, "tagaspi_gaveup")
			}
		})
		want := float64(n * (n + 1) / 2)
		for r := 0; r < n; r++ {
			for i, v := range sums[r] {
				if v != want {
					t.Fatalf("%s rank %d elem %d = %g, want %g (data lost to a drop)", backend, r, i, v, want)
				}
			}
		}
		if res.Fabric.Faults == 0 {
			t.Errorf("%s: no fault injected — fault plane not exercised", backend)
		}
		if backend == "tagaspi" {
			var totalRetries, totalGaveUp float64
			for r := 0; r < n; r++ {
				totalRetries += retries[r]
				totalGaveUp += gaveup[r]
			}
			if totalRetries == 0 {
				t.Error("tagaspi: drops absorbed without a single retry — fault plane not exercised")
			}
			if totalGaveUp != 0 {
				t.Errorf("tagaspi: %g operations abandoned", totalGaveUp)
			}
		}
	}
}

// sample returns the value of the named sample in snap, or 0 if absent.
func sample(snap obs.Snapshot, name string) float64 {
	for _, smp := range snap.Samples {
		if smp.Name == name {
			return smp.Value
		}
	}
	return 0
}

// TestOperandValidation pins the gaspi_allreduce-style operand
// restrictions: zero length, over-length, non-divisible length and
// mismatched out all panic.
func TestOperandValidation(t *testing.T) {
	cluster.Run(backendConfig("mpi", 2), func(env *cluster.Env) {
		if env.Rank != 0 {
			return
		}
		c := collectives.NewMPI(env.MPI, 8)
		for name, bad := range map[string]func(){
			"zero length":     func() { c.Allreduce(nil, nil, collectives.Sum) },
			"over maxElems":   func() { c.Allreduce(make([]float64, 10), make([]float64, 10), collectives.Sum) },
			"indivisible":     func() { c.Allreduce(make([]float64, 3), make([]float64, 3), collectives.Sum) },
			"length mismatch": func() { c.Allreduce(make([]float64, 4), make([]float64, 6), collectives.Sum) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				bad()
			}()
		}
	})
}
