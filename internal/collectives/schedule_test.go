package collectives

import (
	"testing"

	"repro/internal/memory"
)

// TestCombineOperandOrder pins combine's operand order, part of the
// cross-backend bit-identity contract: the running partial is the left
// operand and the incoming element the right.
func TestCombineOperandOrder(t *testing.T) {
	dst := []float64{10, 20, 30}
	in := make([]byte, 3*memory.F64Bytes)
	copy(memory.Float64s(in), []float64{1, 2, 3})
	combine(dst, memory.Float64s(in), func(a, b float64) float64 { return a - b })
	for i, want := range []float64{9, 18, 27} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// BenchmarkCombine folds one received 4 KiB chunk into a running partial
// with Sum, as a reduce-scatter step of the ring does.
func BenchmarkCombine(b *testing.B) {
	const chunkBytes = 4 << 10
	recv := make([]byte, chunkBytes)
	in := memory.Float64s(recv)
	for i := range in {
		in[i] = float64(i)
	}
	dst := make([]float64, chunkBytes/memory.F64Bytes)
	b.SetBytes(chunkBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		combine(dst, memory.Float64s(recv), Sum)
	}
}
