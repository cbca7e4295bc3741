// Package heat implements the paper's first evaluation application
// (§VI-A): the iterative Gauss–Seidel method solving the heat equation on
// a 2-D grid, in the three variants the paper compares:
//
//   - MPI-only: one single-core rank per simulated core (48/node on the
//     Marenostrum4 geometry), each owning a strip of rows divided into
//     column blocks, using optimised non-blocking MPI with early-issued
//     receives.
//   - TAMPI: hybrid MPI+OmpSs-2 with both computation and communication
//     taskified; communication tasks bind their requests with TAMPI_Iwait.
//   - TAGASPI: the same taskification, with sender tasks writing boundary
//     rows directly into the neighbour's memory via tagaspi_write_notify
//     and receiver tasks waiting notifications with tagaspi_notify_iwait,
//     multiplexing operations over the GASPI queues.
//
// The matrix is distributed by consecutive row strips; ranks exchange
// boundary rows with their upper and lower neighbours. The in-place
// Gauss–Seidel sweep order (row-major) makes the parallel computation
// bitwise-identical to the serial reference, which the tests verify.
package heat

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/memory"
)

// Params configures one Gauss–Seidel run.
type Params struct {
	Rows, Cols int // global interior grid size
	Timesteps  int
	BlockRows  int // task block height (hybrid variants)
	BlockCols  int // block width (all variants)
	// Verify runs the real arithmetic on a full (rp+2)×Cols strip per rank
	// (tests, the -verify check). Without it a rank holds one block-wide
	// slot that every send, receive and write reuses; the cost is modelled
	// the same either way.
	Verify bool
}

// Validate checks that ranks ranks (hybrid: in BlockRows×BlockCols task
// blocks) decompose the grid into equal strips of whole blocks.
func (p Params) Validate(ranks int, hybrid bool) error {
	switch {
	case ranks <= 0:
		return fmt.Errorf("heat: rank count %d is not positive", ranks)
	case p.Rows%ranks != 0:
		return fmt.Errorf("heat: %d rows not divisible by %d ranks", p.Rows, ranks)
	case p.BlockCols <= 0:
		return fmt.Errorf("heat: block width %d is not positive", p.BlockCols)
	case hybrid && p.BlockRows <= 0:
		return fmt.Errorf("heat: block height %d is not positive", p.BlockRows)
	case hybrid && (p.Rows/ranks%p.BlockRows != 0 || p.Cols%p.BlockCols != 0):
		return fmt.Errorf("heat: block %dx%d does not divide strip %dx%d",
			p.BlockRows, p.BlockCols, p.Rows/ranks, p.Cols)
	case p.Cols%p.BlockCols != 0:
		return fmt.Errorf("heat: block width %d does not divide %d columns", p.BlockCols, p.Cols)
	}
	return nil
}

// Updates returns the figure-of-merit element count (updates per run).
func (p Params) Updates() float64 {
	return float64(p.Rows) * float64(p.Cols) * float64(p.Timesteps)
}

// boundaryTop is the fixed temperature of the global top boundary row.
const boundaryTop = 1.0

// grid is one rank's strip: rp interior rows plus two halo rows, stored in
// a GASPI segment so one-sided variants can write halos directly. In timed
// mode the segment holds one block-wide slot (DESIGN.md §15).
type grid struct {
	env    *cluster.Env
	p      Params
	ranks  int
	rank   int
	rp     int // interior rows owned by this rank
	seg    *memory.Segment
	v      []float64 // (rp+2) x Cols, a view of seg; Verify only
	bi, bj int       // block grid dimensions (hybrid)
}

// segGrid is the segment id used for the strip.
const segGrid = 0

// newGrid allocates and initialises the strip for env's rank.
func newGrid(env *cluster.Env, p Params, hybrid bool) *grid {
	ranks := env.Ranks()
	if err := p.Validate(ranks, hybrid); err != nil {
		panic(err.Error())
	}
	g := &grid{env: env, p: p, ranks: ranks, rank: int(env.Rank), rp: p.Rows / ranks}
	g.bi, g.bj = 1, p.Cols/p.BlockCols
	if hybrid {
		g.bi = g.rp / p.BlockRows
	}
	size, width := (g.rp+2)*p.Cols, p.BlockCols
	if p.Verify {
		width = size
	}
	seg, err := env.GASPI.SegmentCreateTimed(segGrid, size*memory.F64Bytes, width*memory.F64Bytes)
	if err != nil {
		panic(err)
	}
	g.seg = seg
	if !p.Verify {
		return g
	}
	v, err := memory.F64View(seg, 0, size)
	if err != nil {
		panic(err)
	}
	g.v = v
	// Interior starts at zero (segment is zeroed); set the boundary.
	if g.rank == 0 {
		for c := 0; c < p.Cols; c++ {
			v[g.idx(0, c)] = boundaryTop
		}
	}
	return g
}

// idx maps (strip row, col) to the flat index; row 0 is the top halo and
// row rp+1 the bottom halo.
func (g *grid) idx(r, c int) int { return r*g.p.Cols + c }

// sweep performs the in-place Gauss–Seidel update over strip rows
// [r0, r1] and columns [c0, c1] (inclusive bounds, interior coordinates
// 1..rp and 0..Cols-1; border columns are fixed and skipped).
func (g *grid) sweep(r0, r1, c0, c1 int) {
	if !g.p.Verify {
		return
	}
	v, C := g.v, g.p.Cols
	lo, hi := c0, c1
	if lo == 0 {
		lo = 1
	}
	if hi == C-1 {
		hi = C - 2
	}
	for r := r0; r <= r1; r++ {
		base := r * C
		for c := lo; c <= hi; c++ {
			i := base + c
			v[i] = 0.25 * (v[i-C] + v[i+C] + v[i-1] + v[i+1])
		}
	}
}

// blockCost returns the modelled compute time of a rows×cols block sweep.
func (g *grid) blockCost(rows, cols int) float64 {
	return float64(rows) * float64(cols)
}

// Serial computes the reference solution on a single grid, returning the
// full (Rows+2) x Cols matrix including boundary rows. The sweep order is
// identical to the distributed variants'.
func Serial(p Params) []float64 {
	C := p.Cols
	u := make([]float64, (p.Rows+2)*C)
	for c := 0; c < C; c++ {
		u[c] = boundaryTop
	}
	for t := 0; t < p.Timesteps; t++ {
		for r := 1; r <= p.Rows; r++ {
			for c := 1; c <= C-2; c++ {
				i := r*C + c
				u[i] = 0.25 * (u[i-C] + u[i+C] + u[i-1] + u[i+1])
			}
		}
	}
	return u
}

// Strip returns this rank's interior rows (for verification), or nil in
// timed mode, which holds no rows. It is a view into the rank's segment,
// not a copy: it is valid until that segment is next written.
func (g *grid) Strip() []float64 {
	if !g.p.Verify {
		return nil
	}
	return g.v[g.idx(1, 0):g.idx(g.rp+1, 0)]
}
