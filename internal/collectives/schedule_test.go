package collectives

import (
	"math"
	"testing"

	"repro/internal/memory"
)

// TestCombineOperandOrder pins combine's arithmetic, part of the
// cross-backend bit-identity contract: for every operator the running
// partial is the left operand and the incoming element the right, Sum
// adds and Max and Min are math.Max and math.Min, bit for bit, over
// values that include NaN payloads, −0 and ±Inf.
func TestCombineOperandOrder(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002)
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	left := []float64{10, nan1, negZero, 0, inf, -inf, 1, nan1, 3}
	right := []float64{1, 2, 0, negZero, -inf, 5, nan2, nan2, -7}
	for op, want := range map[Op]func(a, b float64) float64{
		Sum: func(a, b float64) float64 { return a + b },
		Max: math.Max,
		Min: math.Min,
	} {
		dst := append([]float64(nil), left...)
		in := make([]byte, len(right)*memory.F64Bytes)
		copy(memory.Float64s(in), right)
		combine(dst, memory.Float64s(in), op)
		for i := range dst {
			if w := want(left[i], right[i]); math.Float64bits(dst[i]) != math.Float64bits(w) {
				t.Fatalf("op %d: combine(%v, %v) = %#x, want %#x", op, left[i], right[i], math.Float64bits(dst[i]), math.Float64bits(w))
			}
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
