package fabric

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// FuzzJitterSequence checks the lazily seeded source against math/rand:
// for a seed and a draw count, the Uint64 draws must equal those of
// rand.NewSource(seed) and the Float64 draws those of
// rand.New(rand.NewSource(seed)). The corpus crosses the seeds math/rand
// normalises specially (0, negatives, multiples of 2^31-1, the int64
// extremes) with draw counts on either side of the points where a draw
// stops reading seeded words (273 for the tap, 334 and 607 for the feed)
// and of the ring's second lap (1214).
func FuzzJitterSequence(f *testing.F) {
	seeds := []int64{0, 1, -1, 7, 42, lfgMod, -lfgMod, 2 * lfgMod, lfgMod - 1, lfgMod + 1,
		-89482311, 89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	counts := []uint16{1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215, 2000}
	for _, s := range seeds {
		for _, n := range counts {
			f.Add(s, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 2500
		g := newLFG(seed)
		src := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < n; i++ {
			if got, want := g.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d, Uint64 draw %d: %#x, math/rand gives %#x", seed, i+1, got, want)
			}
		}
		g = newLFG(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if got, want := g.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d, Float64 draw %d: %v, math/rand gives %v", seed, i+1, got, want)
			}
		}
	})
}

// JitterStateBudget is the heap, in bytes, one jitterer keeps after 100
// draws (TestJitterStateFootprint): about the most any rank of a timed
// Gauss-Seidel job draws. It measures 1,035–1,039 B with Go 1.24 on
// linux/amd64 — the 48-byte Jitterer and a 128-word history — and the budget
// is 1.24× that.
// A source that seeds math/rand's 607-word state (4.9 KB) or keeps it for
// every jitterer fails it.
const JitterStateBudget = 1280

func TestJitterStateFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	const jitterers, draws = 1000, 100
	js := make([]*Jitterer, jitterers)
	before := liveHeap()
	for i := range js {
		js[i] = NewJitterer(MPIJitterSeed(7, i), 0.1)
		for k := 0; k < draws; k++ {
			js[i].Apply(time.Microsecond)
		}
	}
	per := float64(liveHeap()-before) / jitterers
	runtime.KeepAlive(js)
	t.Logf("jitterer after %d draws: %.0f B retained (budget %d B)", draws, per, JitterStateBudget)
	if per > JitterStateBudget {
		t.Fatalf("a jitterer retains %.0f B after %d draws, budget is %d B", per, draws, JitterStateBudget)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// jitterSink keeps BenchmarkJitterSource's draws from being optimised away.
var jitterSink float64

// BenchmarkJitterSource compares a fresh source's first 100 and 5,000
// draws against math/rand's, seeding included.
func BenchmarkJitterSource(b *testing.B) {
	for _, n := range []int{100, 5000} {
		b.Run("lfg/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := newLFG(int64(i))
				for k := 0; k < n; k++ {
					jitterSink += g.Float64()
				}
			}
		})
		b.Run("mathrand/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < n; k++ {
					jitterSink += r.Float64()
				}
			}
		})
	}
}
