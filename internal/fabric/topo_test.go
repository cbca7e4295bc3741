package fabric

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestShapeString(t *testing.T) {
	want := map[Shape]string{
		ShapeFlat:    "flat",
		ShapeMesh2D:  "mesh",
		ShapeFatTree: "fattree",
		Shape(99):    "shape(99)",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Shape(%d).String() = %q, want %q", s, got, name)
		}
	}
}

// vertexCount is the number of route vertices of a shaped topology: the
// nodes plus, for the fat-tree, its leaf and spine switches.
func vertexCount(shape Shape, nodes int) int {
	if shape != ShapeFatTree {
		return nodes
	}
	leaves := (nodes + fatTreeLeafArity - 1) / fatTreeLeafArity
	return nodes + leaves + (leaves+1)/2
}

// TestShapedRoutesWellFormed checks every route of every shape at several
// node counts: the route starts at the source node, each link continues
// where the previous one ended, the route ends at the destination node,
// and every link endpoint is a valid vertex id.
func TestShapedRoutesWellFormed(t *testing.T) {
	for _, shape := range []Shape{ShapeMesh2D, ShapeFatTree} {
		for _, nodes := range []int{2, 3, 4, 7, 8, 12, 16} {
			topo := NewShapedTopology(shape, nodes, 2)
			verts := vertexCount(shape, nodes)
			for _, l := range topo.links {
				from, to := l.from, l.to
				if from < 0 || from >= verts || to < 0 || to >= verts || from == to {
					t.Fatalf("%v/%d: link endpoints (%d, %d) invalid for %d vertices",
						shape, nodes, from, to, verts)
				}
			}
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					r := topo.routeOf(src, dst)
					if src == dst {
						if r != nil {
							t.Fatalf("%v/%d: same-node route %d->%d not nil", shape, nodes, src, dst)
						}
						continue
					}
					if len(r) == 0 {
						t.Fatalf("%v/%d: empty route %d->%d", shape, nodes, src, dst)
					}
					at := src
					for h, li := range r {
						from, to := topo.links[li].from, topo.links[li].to
						if from != at {
							t.Fatalf("%v/%d: route %d->%d hop %d starts at %d, expected %d",
								shape, nodes, src, dst, h, from, at)
						}
						at = to
					}
					if at != dst {
						t.Fatalf("%v/%d: route %d->%d ends at vertex %d", shape, nodes, src, dst, at)
					}
				}
			}
		}
	}
}

// TestFlatTopologyHasNoLinks pins the backward-compat contract: the flat
// shape carries no link table and no routes, so the fabric hot path stays
// the original single-hop model.
func TestFlatTopologyHasNoLinks(t *testing.T) {
	topo := NewShapedTopology(ShapeFlat, 8, 2)
	if topo.Shape() != ShapeFlat || len(topo.links) != 0 {
		t.Fatalf("flat topology: shape=%v links=%d, want flat/0", topo.Shape(), len(topo.links))
	}
	if r := topo.routeOf(0, 5); r != nil {
		t.Fatalf("flat routeOf(0,5) = %v, want nil", r)
	}
}

func TestMeshDims(t *testing.T) {
	for _, tc := range []struct{ n, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {12, 3, 4}, {16, 4, 4}, {7, 1, 7},
	} {
		if r, c := meshDims(tc.n); r != tc.rows || c != tc.cols {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", tc.n, r, c, tc.rows, tc.cols)
		}
	}
}

func TestFatTreeRouteLengths(t *testing.T) {
	topo := NewFatTreeTopology(8, 1) // 2 leaves, 1 spine
	if got := len(topo.routeOf(0, 1)); got != 2 {
		t.Errorf("fat-tree same-leaf route 0->1 takes %d hops, want 2", got)
	}
	if got := len(topo.routeOf(0, 5)); got != 4 {
		t.Errorf("fat-tree inter-leaf route 0->5 takes %d hops, want 4", got)
	}
	// 8 nodes, then 2 leaves (vertices 8 and 9) and 1 spine (vertex 10).
	top := 0
	for _, l := range topo.links {
		top = max(top, l.from, l.to)
	}
	if top != 10 {
		t.Errorf("fat-tree highest link vertex = %d, want 10 (the spine)", top)
	}
}

// runShapedTraffic drives a fixed incast workload (every other node sends
// to node 0) on a fresh fabric over the given topology and returns the
// per-link snapshots and the modelled finish time.
func runShapedTraffic(t *testing.T, topo Topology) ([]LinkStats, time.Duration) {
	t.Helper()
	clk := vclock.NewVirtual()
	f := New(clk, topo, ProfileOmniPath())
	const perSender = 20
	nodes := topo.Nodes()
	left := (nodes - 1) * perSender
	// The fabric runs on the clock's callbacks: the driver waits inside the
	// simulation, on a parker the handler wakes at the last delivery.
	clk.Register()
	defer clk.Unregister()
	done := clk.Parker()
	f.Register(0, ClassMPI, func(m *Message) {
		if left--; left == 0 {
			done.Unpark()
		}
	})
	for s := 1; s < nodes; s++ {
		s := s
		clk.Go(func() {
			for i := 0; i < perSender; i++ {
				m := NewMessage()
				m.Src, m.Dst, m.Class, m.Size = Rank(s), 0, ClassMPI, 64<<10
				f.Send(m)
			}
		})
	}
	done.Park()
	links := f.LinkSnapshots()
	end := clk.Now()
	f.Close()
	return links, end
}

// TestLinkStatsDeterministic reruns an identical contended incast and
// requires byte-identical per-link statistics and finish time: routes are
// pure functions of the topology and link service is arrival-ordered in
// virtual time, so host scheduling must not leak into the model.
func TestLinkStatsDeterministic(t *testing.T) {
	for _, shape := range []Shape{ShapeMesh2D, ShapeFatTree} {
		a, endA := runShapedTraffic(t, NewShapedTopology(shape, 8, 1))
		b, endB := runShapedTraffic(t, NewShapedTopology(shape, 8, 1))
		if endA != endB {
			t.Errorf("%v: reruns finished at %v vs %v", shape, endA, endB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: per-link statistics diverged across identical reruns", shape)
		}
		if len(a) == 0 {
			t.Fatalf("%v: no link snapshots", shape)
		}
	}
}

// TestLinkContentionObserved checks the tentpole property: an incast on a
// shaped topology serializes on the shared links into the hot node, and
// the contention is visible as nonzero Waited in the link snapshots. The
// flat model cannot show this — every pair has private capacity.
func TestLinkContentionObserved(t *testing.T) {
	links, _ := runShapedTraffic(t, NewMeshTopology(4, 1))
	var waited time.Duration
	var used int
	for _, l := range links {
		waited += l.Res.Waited
		if l.Msgs > 0 {
			used = used + 1
		}
	}
	if waited == 0 {
		t.Fatal("mesh incast produced zero link-contention wait; backpressure not modelled")
	}
	if used == 0 {
		t.Fatal("no link carried any message")
	}
	// Flat snapshot stays nil: no links exist.
	flat, _ := runShapedTraffic(t, NewTopology(4, 1))
	if flat != nil {
		t.Fatalf("flat LinkSnapshots() = %v, want nil", flat)
	}
}

// TestMultiHopFIFO sends a numbered stream across a multi-hop route and
// requires in-order delivery: per-domain injections are serialized, link
// service is arrival-ordered and per-message hop costs are identical, so
// the route must preserve the domain FIFO.
func TestMultiHopFIFO(t *testing.T) {
	const n = 100
	clk := vclock.NewVirtual()
	f := New(clk, NewMeshTopology(6, 1), ProfileOmniPath())
	var order []int
	clk.Register()
	defer clk.Unregister()
	done := clk.Parker()
	f.Register(5, ClassMPI, func(m *Message) {
		order = append(order, m.Payload.(int))
		if len(order) == n {
			done.Unpark()
		}
	})
	for i := 0; i < n; i++ {
		f.Send(&Message{Src: 0, Dst: 5, Class: ClassMPI, Size: 4 << 10, Payload: i})
	}
	done.Park()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: multi-hop routing broke the domain FIFO", i, v)
		}
	}
	f.Close()
}
