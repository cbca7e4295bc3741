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
//
// One kernel, gsSweep, does that arithmetic for every Verify block sweep
// and for Serial. It takes the rows four at a time as a wavefront, each
// row one column behind the row above it, so four independent dependency
// chains are in flight instead of row-major order's one. Every element
// still reads exactly the operands row-major order gives it (the row
// above already new, the row below still old, the left neighbour new and
// the right one old) and adds them in the same order, so the results are
// the row-major loop's, bit for bit; FuzzSweepOrder holds it to that.
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
// 1..rp and 0..Cols-1; border columns are fixed and skipped). gsSweep
// computes it in row-major order's exact arithmetic, four rows at a time.
func (g *grid) sweep(r0, r1, c0, c1 int) {
	if !g.p.Verify {
		return
	}
	C := g.p.Cols
	gsSweep(g.v, C, r0, r1, max(c0, 1), min(c1, C-2))
}

// gsRows is the kernel's wavefront depth: the rows it updates at once.
const gsRows = 4

// gsSweep is the one Gauss–Seidel kernel. It updates v's rows [r0, r1]
// and columns [c0, c1] (inclusive; v is a row-major matrix of C columns,
// and rows r0-1 and r1+1 and columns c0-1 and c1+1 exist) in place, to
// the bit exactly as the row-major loop
//
//	for each row r, then each column c: v[i] = 0.25 * (v[i-C] + v[i+C] + v[i-1] + v[i+1])
//
// does. That loop is one dependency chain (each element waits for its
// left neighbour), so the kernel takes the rows gsRows at a time as a
// wavefront instead: each row runs one column behind the row above it,
// and the gsRows updates of one step are independent chains. Each element
// still reads the operands row-major order gives it, in the same order,
// and nothing is reassociated: the row above is new at this column (it
// runs ahead), the row below is old (it runs behind), the left neighbour
// is new and the right one old. A step's updates touch no element another
// of them reads, so their order within the step is free. Ragged steps
// (the wavefront filling and draining, every step when the range has
// fewer than gsRows columns) and rows past the last whole group take the
// same update one element at a time.
func gsSweep(v []float64, C, r0, r1, c0, c1 int) {
	n := c1 - c0 + 1
	if n <= 0 {
		return
	}
	// Each row is viewed over columns c0-1..c1+1, so element x (1..n) is
	// column c0-1+x and its neighbours sit at x-1 and x+1.
	row := func(r int) []float64 { return v[r*C+c0-1:][:n+2] }
	r := r0
	for ; r+gsRows-1 <= r1; r += gsRows {
		var s [gsRows + 2][]float64 // the row above, the group, the row below
		for j := range s {
			s[j] = row(r - 1 + j)
		}
		// Filling: at step k row j updates element k-j+1, while it exists.
		for k := 0; k < gsRows-1; k++ {
			gsStep(&s, k, n)
		}
		// The full steps, written out for gsRows = 4. Every row is resliced
		// to p0's length, and p0's right neighbour read through right, so
		// the loop carries no bounds checks.
		p0 := s[1]
		m := len(p0)
		u, p1, p2, p3, d := s[0][:m], s[2][:m], s[3][:m], s[4][:m], s[5][:m]
		right := p0[1:] // right[x] is p0[x+1]
		for x := gsRows; x < m-1; x++ {
			p0[x] = 0.25 * (u[x] + p1[x] + p0[x-1] + right[x])
			p1[x-1] = 0.25 * (p0[x-1] + p2[x-1] + p1[x-2] + p1[x])
			p2[x-2] = 0.25 * (p1[x-2] + p3[x-2] + p2[x-3] + p2[x-1])
			p3[x-3] = 0.25 * (p2[x-3] + d[x-3] + p3[x-4] + p3[x-2])
		}
		// Draining: the steps after row 0's last element.
		for k := max(n, gsRows-1); k < n+gsRows-1; k++ {
			gsStep(&s, k, n)
		}
	}
	for ; r <= r1; r++ {
		u, p, d := row(r-1), row(r), row(r+1)
		for x := 1; x <= n; x++ {
			p[x] = 0.25 * (u[x] + d[x] + p[x-1] + p[x+1])
		}
	}
}

// gsStep runs wavefront step k of gsSweep's group s (the row above, the
// gsRows rows, the row below) over n elements per row: group row j
// updates its element k-j+1 if that is in 1..n.
func gsStep(s *[gsRows + 2][]float64, k, n int) {
	for j := range gsRows {
		if x := k - j + 1; x >= 1 && x <= n {
			u, p, d := s[j], s[j+1], s[j+2]
			p[x] = 0.25 * (u[x] + d[x] + p[x-1] + p[x+1])
		}
	}
}

// blockCost returns the modelled compute time of a rows×cols block sweep.
func (g *grid) blockCost(rows, cols int) float64 {
	return float64(rows) * float64(cols)
}

// Serial computes the reference solution on a single grid, returning the
// full (Rows+2) x Cols matrix including boundary rows. It runs the
// variants' kernel, gsSweep, over the whole interior once per timestep, so
// its arithmetic is row-major order's, element for element.
func Serial(p Params) []float64 {
	C := p.Cols
	u := make([]float64, (p.Rows+2)*C)
	for c := 0; c < C; c++ {
		u[c] = boundaryTop
	}
	for t := 0; t < p.Timesteps; t++ {
		gsSweep(u, C, 1, p.Rows, 1, C-2)
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
