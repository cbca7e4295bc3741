package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the upper-bound-inclusive bucketing:
// a sample equal to a bound lands in that bound's bucket, one nanosecond
// more spills into the next, and samples above the last bound land in the
// overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{100, 200, 400}
	h := NewHistogram(bounds)

	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{-5, 0}, // negative clamps to zero
		{99, 0},
		{100, 0}, // inclusive upper bound
		{101, 1},
		{200, 1},
		{201, 2},
		{400, 2},
		{401, 3}, // overflow
		{1 << 40, 3},
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	s := h.Snapshot()
	want := []int64{4, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.N != int64(len(cases)) {
		t.Errorf("N = %d, want %d", s.N, len(cases))
	}
	if s.Min != 0 || s.Max != 1<<40 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{100, 200, 400})
	for i := 0; i < 9; i++ {
		h.Observe(50) // bucket 0
	}
	h.Observe(1000) // overflow
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %v, want bucket bound 100ns", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Errorf("p100 = %v, want Max 1000ns", q)
	}
	if q := s.Quantile(0.99); q != 1000 {
		t.Errorf("p99 = %v, want Max (overflow bucket)", q)
	}
	// All samples below the first bound: the bound still caps at Max.
	h2 := NewHistogram([]time.Duration{100})
	h2.Observe(30)
	if q := h2.Snapshot().Quantile(0.5); q != 30 {
		t.Errorf("p50 of single 30ns sample = %v, want clamp to Max 30ns", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// TestDefaultBucketBoundaries pins upper-bound-inclusive bucketing on the
// production bucket ladder: a sample equal to any DefaultLatencyBuckets
// bound must land in that bound's bucket, never the next one up.
func TestDefaultBucketBoundaries(t *testing.T) {
	h := NewHistogram(nil)
	for _, b := range DefaultLatencyBuckets {
		h.Observe(b)
	}
	s := h.Snapshot()
	for i := range DefaultLatencyBuckets {
		if s.Counts[i] != 1 {
			t.Errorf("bucket %d (bound %v) count = %d, want 1 (boundary sample leaked)",
				i, DefaultLatencyBuckets[i], s.Counts[i])
		}
	}
	if s.Counts[len(DefaultLatencyBuckets)] != 0 {
		t.Errorf("overflow bucket count = %d, want 0", s.Counts[len(DefaultLatencyBuckets)])
	}
}

// TestEmptyHistogramQuantiles pins the empty-histogram contract: every
// quantile of an empty histogram is 0, including the extremes.
func TestEmptyHistogramQuantiles(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := NewHistogram(nil).Snapshot().Quantile(q); got != 0 {
			t.Errorf("fresh histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	// q=0 on a non-empty histogram clamps the rank to the first sample.
	h := NewHistogram(nil)
	h.Observe(50)
	if got := h.Snapshot().Quantile(0); got != 50 {
		t.Errorf("Quantile(0) of single 50ns sample = %v, want 50ns", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(nil) // default buckets
	h.Observe(100)
	h.Observe(300)
	if m := h.Snapshot().Mean(); m != 200 {
		t.Errorf("mean = %v, want 200ns", m)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty histogram mean must be 0")
	}
}

func TestNonAscendingBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram([]time.Duration{200, 100})
}

// TestRegistryConcurrent hammers one registry from many goroutines (the
// same way fabric steps, polling tasks and rank mains record concurrently);
// run under -race this checks the locking of every instrument.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Add(1)
				r.Histogram("shared.hist").Observe(time.Duration(i) * time.Nanosecond)
				r.Counter("private." + string(rune('a'+w))).Add(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared.counter").Value(); v != workers*iters {
		t.Errorf("shared counter = %d, want %d", v, workers*iters)
	}
	if n := r.Histogram("shared.hist").Snapshot().N; n != workers*iters {
		t.Errorf("shared histogram N = %d, want %d", n, workers*iters)
	}
	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	for _, want := range []string{"shared.counter", "shared.hist", "private.a"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}
}

// TestCollectorNilHalves checks that a Collector with only one half
// installed records without crashing — the CLI builds exactly these shapes
// for -trace-only and -metrics-only runs.
func TestCollectorNilHalves(t *testing.T) {
	traceOnly := &Collector{Tracer: NewTracer(1)}
	traceOnly.Span(0, TrackMain, CatTask, "s", 0, 10, 0)
	traceOnly.Instant(0, TrackMain, CatTask, "i", 5, 0)
	traceOnly.Latency("l", 10)
	traceOnly.Count("c", 1)
	if traceOnly.Tracer.Len() != 2 {
		t.Errorf("trace-only events = %d, want 2", traceOnly.Tracer.Len())
	}

	metricsOnly := &Collector{Metrics: NewRegistry()}
	metricsOnly.Span(0, TrackMain, CatTask, "s", 0, 10, 0)
	metricsOnly.Latency("l", 10)
	metricsOnly.Count("c", 2)
	if v := metricsOnly.Metrics.Counter("c").Value(); v != 2 {
		t.Errorf("metrics-only counter = %d, want 2", v)
	}
}
