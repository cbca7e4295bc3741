package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjusted integer metric.
type Counter struct {
	v atomic.Int64
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBuckets are the fixed histogram bucket upper bounds used
// for latency distributions: a coarse exponential ladder from sub-NIC
// overheads (100ns) to stall-scale delays (100ms). A sample lands in the
// first bucket whose bound it does not exceed; larger samples land in the
// overflow bucket.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Nanosecond,
	250 * time.Nanosecond,
	500 * time.Nanosecond,
	1 * time.Microsecond,
	2500 * time.Nanosecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
}

// Histogram is a fixed-bucket duration histogram. Buckets are upper-bound
// inclusive; the final implicit bucket counts samples above the last bound.
type Histogram struct {
	bounds []time.Duration

	mu     sync.Mutex
	counts []int64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewHistogram returns a histogram over the given ascending bucket bounds
// (DefaultLatencyBuckets when nil).
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []time.Duration // bucket upper bounds; Counts has one extra overflow slot
	Counts []int64
	N      int64
	Sum    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]int64(nil), h.counts...),
		N:      h.n, Sum: h.sum, Min: h.min, Max: h.max,
	}
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// recorded samples: the bound of the bucket the quantile falls in (Max for
// the overflow bucket). It returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.N == 0 {
		return 0
	}
	// Nearest-rank: the smallest sample position covering fraction q.
	rank := int64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.N {
		rank = s.N
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				b := s.Bounds[i]
				if b > s.Max {
					return s.Max
				}
				return b
			}
			return s.Max
		}
	}
	return s.Max
}

// Mean returns the average recorded sample.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.N == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.N)
}

// Registry holds named metrics. Lookups take a read lock on the fast path
// and instruments are created on first use, so instrumentation sites need
// no registration step.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram with the default latency buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	return h
}

// Write renders every metric as aligned text, sorted by name: counters one
// per line, histograms with count/mean/median/p99/max.
func (r *Registry) Write(w io.Writer) {
	r.mu.RLock()
	cnames := sortedKeys(r.counters)
	hnames := sortedKeys(r.hists)
	counters := make(map[string]int64, len(cnames))
	for _, n := range cnames {
		counters[n] = r.counters[n].Value()
	}
	hists := make(map[string]HistogramSnapshot, len(hnames))
	for _, n := range hnames {
		hists[n] = r.hists[n].Snapshot()
	}
	r.mu.RUnlock()

	for _, n := range cnames {
		fmt.Fprintf(w, "counter  %-32s %d\n", n, counters[n])
	}
	for _, n := range hnames {
		s := hists[n]
		fmt.Fprintf(w, "hist     %-32s n=%d mean=%v p50=%v p99=%v min=%v max=%v\n",
			n, s.N, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Min, s.Max)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
