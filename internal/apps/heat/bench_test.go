package heat

import (
	"testing"

	"repro/internal/memory"
)

// BenchmarkVerifySweep times the Verify kernel: one in-place Gauss–Seidel
// sweep of a 64×1024 block in a strip held by registered bytes.
func BenchmarkVerifySweep(b *testing.B) {
	const rows, cols = 64, 1024
	g := &grid{p: Params{Rows: rows, Cols: cols, BlockRows: rows, BlockCols: cols, Verify: true}, rp: rows}
	g.v = memory.Float64s(make([]byte, (rows+2)*cols*memory.F64Bytes))
	for c := range cols {
		g.v[c] = boundaryTop
	}
	b.SetBytes(rows * cols * memory.F64Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.sweep(1, rows, 0, cols-1)
	}
}
