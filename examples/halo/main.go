// Halo: a 1-D ring halo exchange over four ranks that mixes both
// task-aware libraries in the same application (§III: "these libraries are
// complementary and can be mixed in the same application") — one-sided
// TAGASPI writes for the halo data, two-sided TAMPI messages for a
// per-step reduction of the local residuals.
//
// Because the receiver does not participate in one-sided transfers, halo
// cells and notification ids are double-buffered by step parity, so a
// neighbour running one step ahead can never overwrite a value before it
// is consumed (the lightweight alternative to per-step acks for ring
// patterns).
//
//	go run ./examples/halo
package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

const (
	ranks = 4
	cells = 16 // interior cells per rank
	steps = 4
)

// Segment layout (float64 slots):
//
//	[0..1]                 left halo, by step parity
//	[2..cells+1]           interior
//	[cells+2..cells+3]     right halo, by step parity
const (
	leftHalo  = 0
	interior  = 2
	rightHalo = cells + 2
	slots     = cells + 4
)

// must fails fast on simulator API errors: in this example any error is a
// programming bug (bad offset, unknown segment, invalid queue).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	cfg := cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
	}
	cluster.Run(cfg, func(env *cluster.Env) {
		seg, err := env.GASPI.SegmentCreate(0, slots*memory.F64Bytes)
		must(err)
		v, err := memory.F64View(seg, 0, slots)
		must(err)
		me := int(env.Rank)
		left := (me - 1 + ranks) % ranks
		right := (me + 1) % ranks
		for i := 0; i < cells; i++ {
			v[interior+i] = float64(me)
		}
		// Initial halos (parity 0) are the neighbours' initial values.
		v[leftHalo] = float64(left)
		v[rightHalo] = float64(right)
		rt, tg, ta := env.RT, env.TAGASPI, env.TAMPI
		off := func(slot int) int { return slot * memory.F64Bytes }

		residual := make([]byte, 8)
		for s := 0; s < steps; s++ {
			par := s % 2
			nextPar := (s + 1) % 2

			var fromLeft, fromRight int64
			if s > 0 {
				// Wait for this step's halo values (parity ids 0/1 left,
				// 2/3 right).
				rt.Submit(func(t *tasking.Task) {
					tg.NotifyIwait(t, 0, tagaspi.NotificationID(par), &fromLeft)
					tg.NotifyIwait(t, 0, tagaspi.NotificationID(2+par), &fromRight)
				}, tasking.WithDeps(
					tasking.Out(seg, leftHalo+par, leftHalo+par+1),
					tasking.Out(seg, rightHalo+par, rightHalo+par+1),
					tasking.OutVal(&fromLeft)),
					tasking.WithLabel("halo wait"))
			}

			// Jacobi smoothing over the interior, reading this parity's
			// halos; also produces the local residual.
			rt.Submit(func(t *tasking.Task) {
				old := slices.Clone(v)
				at := func(i int) float64 { // logical cell -1..cells
					switch {
					case i < 0:
						return old[leftHalo+par]
					case i >= cells:
						return old[rightHalo+par]
					default:
						return old[interior+i]
					}
				}
				r := 0.0
				for i := 0; i < cells; i++ {
					x := (at(i-1) + at(i) + at(i+1)) / 3
					v[interior+i] = x
					r += math.Abs(x - at(i))
				}
				memory.Float64s(residual)[0] = r
			}, tasking.WithDeps(
				tasking.InOut(seg, interior, interior+cells),
				tasking.In(seg, leftHalo+par, leftHalo+par+1),
				tasking.In(seg, rightHalo+par, rightHalo+par+1),
				tasking.InVal(&fromLeft),
				tasking.OutVal(&residual[0])),
				tasking.WithLabel("smooth"))

			// One-sided writes of the next step's halos into the
			// neighbours' opposite-parity slots.
			if s < steps-1 {
				rt.Submit(func(t *tasking.Task) {
					// My first cell -> left neighbour's right halo.
					must(tg.WriteNotify(t, 0, off(interior), fabric.Rank(left),
						0, off(rightHalo+nextPar), memory.F64Bytes,
						tagaspi.NotificationID(2+nextPar), int64(s+1), 0))
					// My last cell -> right neighbour's left halo.
					must(tg.WriteNotify(t, 0, off(interior+cells-1), fabric.Rank(right),
						0, off(leftHalo+nextPar), memory.F64Bytes,
						tagaspi.NotificationID(nextPar), int64(s+1), 1))
				}, tasking.WithDeps(tasking.In(seg, interior, interior+cells)),
					tasking.WithLabel("halo write"))
			}

			// Two-sided TAMPI: reduce the residuals on rank 0.
			rt.Submit(func(t *tasking.Task) {
				ta.Iwait(t, env.MPI.Isend(residual, 0, 100+s))
			}, tasking.WithDeps(tasking.InVal(&residual[0])), tasking.WithLabel("send residual"))
			if me == 0 {
				acc := new(float64)
				for r := 0; r < ranks; r++ {
					buf := make([]byte, 8)
					rt.Submit(func(t *tasking.Task) {
						ta.Iwait(t, env.MPI.Irecv(buf, fabric.Rank(r), 100+s))
					}, tasking.WithDeps(tasking.Out(&buf[0], 0, 8)),
						tasking.WithLabel("recv residual"))
					rt.Submit(func(t *tasking.Task) {
						*acc += memory.Float64s(buf)[0]
					}, tasking.WithDeps(tasking.In(&buf[0], 0, 8), tasking.InOutVal(acc)),
						tasking.WithLabel("reduce"))
				}
				rt.Submit(func(t *tasking.Task) {
					fmt.Printf("step %d: global residual %.4f\n", s, *acc)
					*acc = 0
				}, tasking.WithDeps(tasking.InOutVal(acc)), tasking.WithLabel("report"))
			}
		}
		rt.TaskWait()
		if me == 0 {
			fmt.Printf("final interior of rank 0: %.3f ... %.3f\n",
				v[interior], v[interior+cells-1])
		}
	})
}
