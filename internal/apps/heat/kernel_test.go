package heat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"
)

// rowMajor is the reference order gsSweep must reproduce bit for bit: the
// paper's in-place sweep over rows [r0, r1] and columns [c0, c1].
func rowMajor(v []float64, C, r0, r1, c0, c1 int) {
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			i := r*C + c
			v[i] = 0.25 * (v[i-C] + v[i+C] + v[i-1] + v[i+1])
		}
	}
}

// fuzzValue draws one strip value: with probability special/256 a NaN
// with a random payload and sign (quiet or signalling), −0, ±Inf or a
// subnormal, otherwise a normal value of either sign spanning ten orders
// of magnitude.
func fuzzValue(rng *rand.Rand, special uint8) float64 {
	if rng.IntN(256) < int(special) {
		sign := rng.Uint64() & (1 << 63)
		mant := rng.Uint64() & (1<<52 - 1)
		switch rng.IntN(4) {
		case 0:
			return math.Float64frombits(sign | 0x7ff<<52 | max(mant, 1))
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1 - 2*rng.IntN(2))
		default:
			return math.Float64frombits(sign | max(mant, 1))
		}
	}
	x := math.Pow(10, 10*rng.Float64()-5)
	if rng.IntN(2) == 0 {
		x = -x
	}
	return x
}

// FuzzSweepOrder checks gsSweep against the row-major reference, bit for
// bit, on generated strips: 1–40 interior rows and 3–70 columns, any
// sub-range of rows and columns (the 1–3-wide ones run only the
// wavefront's filling and draining steps), with NaN payloads, −0, ±Inf
// and subnormals among the values.
func FuzzSweepOrder(f *testing.F) {
	f.Add(uint8(16), uint8(128), uint8(0), uint8(255), uint8(0), uint8(255), uint8(0), uint64(1))
	f.Add(uint8(63), uint8(61), uint8(0), uint8(63), uint8(0), uint8(63), uint8(16), uint64(2))
	f.Add(uint8(10), uint8(0), uint8(0), uint8(10), uint8(0), uint8(2), uint8(255), uint64(3))
	f.Add(uint8(2), uint8(5), uint8(1), uint8(2), uint8(1), uint8(1), uint8(64), uint64(4))
	f.Add(uint8(39), uint8(67), uint8(4), uint8(38), uint8(2), uint8(4), uint8(32), uint64(5))
	f.Add(uint8(12), uint8(33), uint8(3), uint8(9), uint8(5), uint8(7), uint8(128), uint64(6))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(8), uint64(7))
	f.Fuzz(func(t *testing.T, rows, cols, ra, rb, ca, cb, special uint8, seed uint64) {
		R, C := 1+int(rows)%40, 3+int(cols)%68
		r0, r1 := 1+int(ra)%R, 1+int(rb)%R
		c0, c1 := 1+int(ca)%(C-2), 1+int(cb)%(C-2)
		r0, r1 = min(r0, r1), max(r0, r1)
		c0, c1 = min(c0, c1), max(c0, c1)
		rng := rand.New(rand.NewPCG(seed, uint64(rows)<<8|uint64(cols)))
		want := make([]float64, (R+2)*C)
		for i := range want {
			want[i] = fuzzValue(rng, special)
		}
		got := append([]float64(nil), want...)
		rowMajor(want, C, r0, r1, c0, c1)
		gsSweep(got, C, r0, r1, c0, c1)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d strip, rows %d..%d, cols %d..%d: element (%d,%d) is %#x, row-major order gives %#x",
					R+2, C, r0, r1, c0, c1, i/C, i%C, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// serialDigest returns the SHA-256 of v's float64 bits, little-endian.
func serialDigest(v []float64) string {
	b := make([]byte, 0, len(v)*8)
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSerialGolden pins heat.Serial's output bits. The variant tests
// compare every rank's strip against Serial, and Serial shares gsSweep
// with them, so a kernel bug common to both would pass those tests; these
// digests were computed with the row-major loop the kernel replaced.
func TestSerialGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want string
	}{
		{"verifyParams", verifyParams, "37dafc8bcd115dc9c16b0c336ed6e3c35258dd1875873da77cbab3c88a18d17b"},
		{"11x5", Params{Rows: 11, Cols: 5, Timesteps: 9}, "d34ccbe2bf1a18bada4454a373de7653888f3bdd472ca74ce3015a047d7ad925"},
		{"256x1024", Params{Rows: 256, Cols: 1024, Timesteps: 2}, "dc86c6ca0b65516fb03407486c290b160bd5beeb5274557089d13d1acabfc4e9"},
	} {
		if got := serialDigest(Serial(tc.p)); got != tc.want {
			t.Errorf("%s: Serial digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestVerifySweepZeroAlloc gates the Verify kernel's allocations: a sweep
// of cmd/bench's MPI-only 16×128 block and of its hybrid 64×64 block, in a
// 1,024-column strip, allocates nothing.
func TestVerifySweepZeroAlloc(t *testing.T) {
	for _, bs := range []struct{ rows, cols int }{{16, 128}, {64, 64}} {
		g := benchGrid(bs.rows, 1024)
		if n := testing.AllocsPerRun(20, func() { g.sweep(1, bs.rows, bs.cols, 2*bs.cols-1) }); n != 0 {
			t.Errorf("%dx%d block: a Verify sweep allocates %v objects, want 0", bs.rows, bs.cols, n)
		}
	}
}
