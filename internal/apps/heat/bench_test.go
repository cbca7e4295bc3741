package heat

import (
	"fmt"
	"testing"

	"repro/internal/memory"
)

// benchGrid returns a Verify grid of rows interior rows and cols columns
// whose strip is held by registered bytes, its top boundary set.
func benchGrid(rows, cols int) *grid {
	g := &grid{p: Params{Rows: rows, Cols: cols, BlockRows: rows, BlockCols: cols, Verify: true}, rp: rows}
	g.v = memory.Float64s(make([]byte, (rows+2)*cols*memory.F64Bytes))
	for c := range cols {
		g.v[c] = boundaryTop
	}
	return g
}

// BenchmarkVerifySweep times the Verify kernel: one in-place Gauss–Seidel
// sweep of a rows×cols block in a 1,024-column strip. 16×128 is
// cmd/bench's MPI-only block and 64×64 its hybrid one; 64×1024 sweeps the
// whole strip, border columns included.
func BenchmarkVerifySweep(b *testing.B) {
	const stripCols = 1024
	for _, bs := range []struct{ rows, cols int }{{16, 128}, {64, 64}, {64, 1024}} {
		b.Run(fmt.Sprintf("%dx%d", bs.rows, bs.cols), func(b *testing.B) {
			g := benchGrid(bs.rows, stripCols)
			c0 := 0
			if bs.cols < stripCols {
				c0 = bs.cols // an interior block: no border column
			}
			b.SetBytes(int64(bs.rows * bs.cols * memory.F64Bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				g.sweep(1, bs.rows, c0, c0+bs.cols-1)
			}
		})
	}
}

// BenchmarkSerial times the serial reference: two timesteps over a
// 256×1,024 matrix, allocation included.
func BenchmarkSerial(b *testing.B) {
	p := Params{Rows: 256, Cols: 1024, Timesteps: 2}
	b.SetBytes(int64(p.Updates()) * memory.F64Bytes)
	b.ReportAllocs()
	for range b.N {
		Serial(p)
	}
}
