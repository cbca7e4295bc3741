// The communication schedule shared by every backend. The ring moves
// chunks rightward (rank r sends to r+1, receives from r-1). Because all
// three backends derive their sends, receives and combine order from
// these functions alone, a reduction combines values in the same order
// everywhere — the cross-backend bit-identity contract of DESIGN.md §12.

package collectives

import (
	"fmt"
	"math"
)

// mod returns a mod n in [0, n) for possibly-negative a.
//
//tagalint:hotpath
func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// ringSendChunk returns the chunk index rank me sends at global ring step
// g. Steps 0..n-2 are the reduce-scatter phase (each rank pushes its
// running partial of chunk me-g); steps n-1..2n-3 are the allgather phase
// (each rank forwards the finished chunk it most recently received).
//
//tagalint:hotpath
func ringSendChunk(me, n, g int) int {
	if g < n-1 {
		return mod(me-g, n)
	}
	return mod(me+1-(g-(n-1)), n)
}

// ringRecvChunk returns the chunk index rank me receives at step g: what
// its left neighbour sends.
//
//tagalint:hotpath
func ringRecvChunk(me, n, g int) int {
	return ringSendChunk(mod(me-1, n), n, g)
}

// combine folds the incoming chunk src into dst element-wise:
// dst[i] = op(dst[i], src[i]), with math.Max and math.Min themselves for
// Max and Min, so NaN and −0 behave as they define. The operand order is
// part of the cross-backend bit-identity contract. A chunk travels as the
// bytes of a float64 view (memory.Float64s), so sending it is a copy into
// the send buffer's view and receiving it reads the receive buffer's view
// in place.
//
//tagalint:hotpath
func combine(dst, src []float64, op Op) {
	src = src[:len(dst)]
	switch op {
	case Sum:
		for i := range dst {
			dst[i] = dst[i] + src[i]
		}
	case Max:
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	case Min:
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	default:
		panic(fmt.Sprintf("collectives: unknown reduction operator %d", op))
	}
}
