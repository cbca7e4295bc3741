package fabric

import "math/rand"

// lfg is math/rand's additive lagged-Fibonacci source (Mitchell and Reeds;
// length 607, tap 273), reproduced draw for draw but seeded lazily. Seeding
// math/rand fills a 607-word state with three Lehmer steps per word, about
// 10 µs, and holds 4.9 KB for as long as the generator lives; a jitterer
// draws a few hundred times at most. lfg instead computes each seeded word
// only when a draw first reads it and keeps only the outputs drawn so far,
// which become the 607-word history ring once that many exist.
//
// The sequence, numbering draws from 1: with v_i the seeded words,
//
//	out_n = A + B,  A = out_{n-607} if n > 607, else v_{(334-n) mod 607}
//	                B = out_{n-273} if n > 273, else v_{607-n}
//
// which is math/rand's rngSource.Uint64 with its feed and tap indices
// unrolled. The zero lfg is not usable; newLFG builds one.
type lfg struct {
	x0   uint32   // math/rand's normalised seed, in [1, 2^31-1)
	feed int32    // once out is full: ring slot of out_{n-607}, overwritten by draw n
	out  []uint64 // out_1..out_len while filling; then the ring
}

const (
	lfgLen  = 607
	lfgTap  = 273
	lfgLag  = lfgLen - lfgTap // 334: where the first draw's A reads
	lfgMod  = 1<<31 - 1       // the Lehmer generator's modulus
	lfgMul  = 48271           // and its multiplier
	lfgSkip = 20              // Lehmer steps math/rand discards before word 0
)

var (
	// lfgPow[k] is lfgMul^k mod lfgMod: the k-th Lehmer step of any seed is
	// one multiply-mod from it.
	lfgPow [lfgSkip + 1 + 3*lfgLen]uint32

	// lfgCooked is math/rand's rngCooked table, recovered in init from the
	// draws of a seed-1 math/rand source rather than copied.
	lfgCooked [lfgLen]uint64
)

func init() {
	p := uint64(1)
	for k := range lfgPow {
		lfgPow[k] = uint32(p)
		p = p * lfgMul % lfgMod
	}
	// Invert the recurrence on math/rand's first 607 draws for seed 1.
	// Draws 274..607 read B from earlier outputs, so A = out_n - out_{n-273}
	// is the seeded word v_{(334-n) mod 607}; draws 1..273 read both words
	// from the seed, and by then their B word v_{607-n} is known.
	src := rand.NewSource(1).(rand.Source64)
	var out [lfgLen + 1]uint64 // out[n], 1-based
	for n := 1; n <= lfgLen; n++ {
		out[n] = src.Uint64()
	}
	var v [lfgLen]uint64
	for n := lfgTap + 1; n <= lfgLen; n++ {
		v[(lfgLag-n+lfgLen)%lfgLen] = out[n] - out[n-lfgTap]
	}
	for n := 1; n <= lfgTap; n++ {
		v[lfgLag-n] = out[n] - v[lfgLen-n]
	}
	for i := range v {
		lfgCooked[i] = v[i] ^ lfgMix(1, i)
	}
}

// newLFG returns the source math/rand.NewSource(seed) would build, without
// building its state. The seed is normalised as math/rand does: reduced
// mod 2^31-1, negatives wrapped, and 0 replaced by 89482311.
func newLFG(seed int64) lfg {
	seed %= lfgMod
	if seed < 0 {
		seed += lfgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return lfg{x0: uint32(seed)}
}

// lfgMix is the Lehmer part of seeded word i for normalised seed x0: the
// steps 21+3i, 22+3i and 23+3i of x0, packed as math/rand packs them.
func lfgMix(x0 uint32, i int) uint64 {
	k, x := lfgSkip+1+3*i, uint64(x0)
	return uint64(lfgPow[k])*x%lfgMod<<40 ^ uint64(lfgPow[k+1])*x%lfgMod<<20 ^ uint64(lfgPow[k+2])*x%lfgMod
}

// seeded returns seeded word v_i.
func (g *lfg) seeded(i int) uint64 { return lfgCooked[i] ^ lfgMix(g.x0, i) }

// Uint64 returns the next draw, equal to math/rand's Source64.Uint64.
func (g *lfg) Uint64() uint64 {
	if len(g.out) == lfgLen {
		f := int(g.feed)
		t := f + lfgLag
		if t >= lfgLen {
			t -= lfgLen
		}
		x := g.out[f] + g.out[t]
		g.out[f] = x
		if f++; f == lfgLen {
			f = 0
		}
		g.feed = int32(f)
		return x
	}
	n := len(g.out) + 1
	a := lfgLag - n
	if a < 0 {
		a += lfgLen
	}
	x := g.seeded(a)
	if n > lfgTap {
		x += g.out[n-lfgTap-1]
	} else {
		x += g.seeded(lfgLen - n)
	}
	if len(g.out) == cap(g.out) {
		// Grow by doubling, but stop at exactly the ring's length.
		g.out = append(make([]uint64, 0, min(max(2*cap(g.out), 16), lfgLen)), g.out...)
	}
	g.out = append(g.out, x)
	return x
}

// Float64 returns a draw in [0, 1), equal to math/rand's Rand.Float64: the
// draw's low 63 bits over 2^63, drawn again on the rare rounding to 1.
func (g *lfg) Float64() float64 {
	for {
		if f := float64(int64(g.Uint64()&(1<<63-1))) / (1 << 63); f != 1 {
			return f
		}
	}
}
