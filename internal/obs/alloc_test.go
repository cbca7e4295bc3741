package obs

import (
	"testing"
	"time"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; its instrumentation allocates, so allocation-count gates
// skip under -race.
var raceEnabled bool

// recordSite mirrors the shape of every instrumentation site in the
// simulator: a component holds an optional *Collector and guards each record
// call with one nil check. go:noinline keeps the call shape honest — the
// compiler must evaluate the arguments exactly as a real site would.
//
//go:noinline
func recordSite(rec *Collector, rank int, now time.Duration) {
	if rec == nil {
		return
	}
	rec.Span(rank, TrackFabricTx, CatFabric, "fabric:inject", now, now+time.Microsecond, 256)
	rec.Instant(rank, TrackFabricRx, CatFabric, "fabric:deliver", now, 256)
	rec.Flow(rank, TrackFabricTx, CatFabric, "flow:msg", 's', now, 12345)
	rec.Latency("fabric_queue_residency", time.Microsecond)
	rec.Count("fabric_messages", 1)
}

// TestNilRecorderZeroAlloc is the allocation-regression gate of
// scripts/ci.sh for the uninstrumented configuration: with a nil Collector,
// an instrumentation site must cost one compare-and-jump and zero heap
// allocations (the package doc's contract).
func TestNilRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	var rec *Collector // nil: observability disabled
	allocs := testing.AllocsPerRun(1000, func() {
		recordSite(rec, 3, 5*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("nil-Recorder record site allocates %.2f/call, want 0", allocs)
	}
}

// TestNilHalvesCollectorZeroAlloc extends the gate to the half-disabled
// Collector shapes the CLI builds: a Collector with a nil Tracer must not
// allocate on timeline calls, and one with a nil Registry must not allocate
// on metric calls.
func TestNilHalvesCollectorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	rec := &Collector{} // both halves nil: records nothing
	allocs := testing.AllocsPerRun(1000, func() {
		recordSite(rec, 3, 5*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("nil-halves Collector record site allocates %.2f/call, want 0", allocs)
	}
}

// TestEventsAllocatesOnce requires Events to copy N recorded events, spread
// over several rank shards, with one allocation of exactly N events: no
// growth while the shards are gathered and none in the canonical sort.
func TestEventsAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	const ranks, n = 4, 1000
	tr := NewTracer(ranks)
	for i := 0; i < n; i++ {
		ts := time.Duration(n-i) * time.Nanosecond // reverse order: the sort has work
		tr.Instant(i%ranks, TrackMain, CatObs, "e", ts, int64(i))
	}
	if evs := tr.Events(); len(evs) != n || cap(evs) != n {
		t.Fatalf("Events returned len %d cap %d, want %d and %d", len(evs), cap(evs), n, n)
	}
	if allocs := testing.AllocsPerRun(20, func() { tr.Events() }); allocs != 1 {
		t.Fatalf("Events makes %.1f allocations per call, want 1", allocs)
	}
}
