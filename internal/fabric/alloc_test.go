package fabric

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; its instrumentation allocates, so allocation-count gates
// skip under -race.
var raceEnabled bool

// allocsPerMessage measures host heap allocations per message for a full
// Send -> inject -> deliver round trip. The fabric cannot be pumped from
// outside the simulation, so the harness is a registered goroutine that
// parks on a reusable Parker after each batch: the park advances the clock,
// every fabric step runs as a callback on this very goroutine, and the
// handler unparks it on the batch's last delivery. With instrumented=true
// the fabric records into a live
// Collector — spans, instants and the flow-stamped causal edges — and the
// tracer is Reset between measurement rounds so its pre-grown shard
// buffers are reused instead of growing, which is exactly the steady state
// the hotalloc budget polices.
func allocsPerMessage(t *testing.T, batch int, instrumented bool) float64 {
	return allocsPerMessageOn(t, NewTopology(2, 1), 1, batch, instrumented)
}

// allocsPerMessageOn is allocsPerMessage on an arbitrary topology and
// destination rank, so the multi-hop routed path (per-link bookings, link
// streams) is measured by the same harness as the flat one.
func allocsPerMessageOn(t *testing.T, topo Topology, dst Rank, batch int, instrumented bool) float64 {
	t.Helper()
	clk := vclock.NewVirtual()
	f := New(clk, topo, ProfileOmniPath())
	var col *obs.Collector
	if instrumented {
		col = &obs.Collector{Tracer: obs.NewTracer(topo.Ranks())}
		f.SetRecorder(col)
	}
	clk.Register()
	defer clk.Unregister()
	done := clk.Parker()
	delivered := 0
	f.Register(dst, ClassMPI, func(m *Message) {
		if delivered++; delivered == batch {
			delivered = 0
			done.Unpark()
		}
	})

	send := func() {
		if col != nil {
			col.Tracer.Reset()
		}
		for i := 0; i < batch; i++ {
			m := NewMessage()
			m.Src, m.Dst, m.Class, m.Size = 0, dst, ClassMPI, 256
			f.Send(m)
		}
		done.Park()
	}
	send() // warm up the path (domain setup, FIFO and link-stream growth)

	per := testing.AllocsPerRun(16, send) / float64(batch)
	f.Close()
	return per
}

// CourierAllocBudget is the committed per-message allocation budget of the
// uninstrumented send path, Send through delivery (the name is from when
// courier goroutines ran it). Before the allocation diet this path
// measured ~10.5 allocs/message (a fresh Message per Send, a fresh parker
// and timer per modelled sleep, per-Pop lock round trips); with pooled
// messages, reusable per-domain clock events and per-link streams it
// measures 0.00. The budget is 1.0 rather than 0: a GC
// cycle during the measurement may empty the pools and charge a handful
// of refills to the run. Raising this number is a performance regression
// and needs justification.
const CourierAllocBudget = 1.0

// TestCourierAllocBudget is the allocation-regression gate of scripts/ci.sh:
// the per-message allocation count of the send hot path must not exceed
// the committed budget.
func TestCourierAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	per := allocsPerMessage(t, 64, false)
	t.Logf("courier path: %.2f allocs/message (budget %.1f)", per, CourierAllocBudget)
	if per > CourierAllocBudget {
		t.Fatalf("courier send path allocates %.2f/message, budget is %.1f", per, CourierAllocBudget)
	}
}

// TestCourierAllocBudgetInstrumented holds the same budget with causal
// tracing on: flow-id stamping (Message.Flow, the per-path sequence) and
// the 's'/'f' edge recording must not add a single steady-state allocation
// per message on top of the recording layer's pre-grown shard buffers.
func TestCourierAllocBudgetInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	per := allocsPerMessage(t, 64, true)
	t.Logf("instrumented courier path: %.2f allocs/message (budget %.1f)", per, CourierAllocBudget)
	if per > CourierAllocBudget {
		t.Fatalf("flow-stamped send path allocates %.2f/message, budget is %.1f", per, CourierAllocBudget)
	}
}

// TestCourierAllocBudgetMultiHop holds the same budget on the routed
// multi-hop path: a 2x3 mesh where 0 -> 5 crosses three links, so
// every message takes three link bookings and rides two link streams on
// top of the flat path. Hop state lives in the pooled Message and each
// link's stream reuses its buffer (compacting in place, see
// TestLinkStreamFootprint), so steady-state allocations must not grow
// with route length.
func TestCourierAllocBudgetMultiHop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	topo := NewMeshTopology(6, 1)
	if r := topo.routeOf(0, 5); len(r) != 3 {
		t.Fatalf("mesh route 0->5 has %d hops, want 3", len(r))
	}
	per := allocsPerMessageOn(t, topo, 5, 64, false)
	t.Logf("multi-hop courier path: %.2f allocs/message (budget %.1f)", per, CourierAllocBudget)
	if per > CourierAllocBudget {
		t.Fatalf("multi-hop send path allocates %.2f/message, budget is %.1f", per, CourierAllocBudget)
	}
	per = allocsPerMessageOn(t, topo, 5, 64, true)
	t.Logf("instrumented multi-hop path: %.2f allocs/message (budget %.1f)", per, CourierAllocBudget)
	if per > CourierAllocBudget {
		t.Fatalf("instrumented multi-hop path allocates %.2f/message, budget is %.1f", per, CourierAllocBudget)
	}
}
