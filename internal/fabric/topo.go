// Topology shapes of the simulated interconnect (DESIGN.md §13).
//
// The flat shape is the original fabric model: every inter-node pair is
// one hop with private capacity, so congestion cannot emerge between
// pairs. A shaped topology (2D mesh, fat-tree) expands each
// (source node, destination node) pair into a deterministic multi-hop
// route of directed links; each link is a serially-served resource
// (vsync.Resource) with its own serialization capacity, so messages
// queue per hop and backpressure and hotspots emerge from contention
// instead of being parameterized.
//
// Routes are a pure function of the topology — no adaptive or
// randomized routing — so two runs of the same workload traverse the
// same links in the same order and the per-link statistics are
// byte-identical across reruns, the property the repository's
// determinism gates rest on.
package fabric

import "fmt"

// Shape selects the interconnect topology of a fabric. The zero value is
// ShapeFlat: the original single-hop model with unchanged defaults.
type Shape uint8

// Topology shapes.
const (
	// ShapeFlat is the original model: every inter-node pair is one hop
	// with private capacity and no shared links.
	ShapeFlat Shape = iota
	// ShapeMesh2D arranges the nodes in a rows×cols grid (rows is the
	// largest divisor of N not exceeding √N) with 4-neighbour directed
	// links and no wraparound; routes use X-then-Y dimension order.
	ShapeMesh2D
	// ShapeFatTree builds a two-level switched tree: groups of up to
	// four nodes share a leaf switch, every leaf connects to every spine
	// switch, and inter-leaf routes pick their spine by destination
	// (deterministic ECMP). Switches are extra route vertices with ids
	// above the node ids.
	ShapeFatTree
)

// String returns the canonical shape name used in figure ids and reports.
func (s Shape) String() string {
	switch s {
	case ShapeFlat:
		return "flat"
	case ShapeMesh2D:
		return "mesh"
	case ShapeFatTree:
		return "fattree"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// topoLink is one directed link between two route vertices.
type topoLink struct {
	from, to int
}

// fatTreeLeafArity is the number of nodes sharing one leaf switch of a
// fat-tree topology.
const fatTreeLeafArity = 4

// NewShapedTopology builds the topology of the given shape. ShapeFlat
// delegates to NewTopology; the other shapes add their link tables and
// precomputed routes.
func NewShapedTopology(shape Shape, nodes, ranksPerNode int) Topology {
	switch shape {
	case ShapeFlat:
		return NewTopology(nodes, ranksPerNode)
	case ShapeMesh2D:
		return NewMeshTopology(nodes, ranksPerNode)
	case ShapeFatTree:
		return NewFatTreeTopology(nodes, ranksPerNode)
	}
	panic(fmt.Sprintf("fabric: unknown topology shape %d", uint8(shape)))
}

// Shape returns the topology's shape.
func (t Topology) Shape() Shape { return t.shape }

// routeOf returns the link-index route from node src to node dst, or nil
// when the topology is flat or the nodes coincide. The returned slice is
// shared and must not be mutated.
func (t Topology) routeOf(src, dst int) []uint16 {
	if t.routes == nil || src == dst {
		return nil
	}
	return t.routes[src*t.nodes+dst]
}

// topoBuilder accumulates the link table and route set of one shaped
// topology. Links are registered in a canonical enumeration order before
// any route references them, so link indices — and with them every
// per-link statistic — are independent of route-construction order.
type topoBuilder struct {
	t   *Topology
	idx map[topoLink]uint16
}

func newTopoBuilder(t *Topology) *topoBuilder {
	return &topoBuilder{t: t, idx: make(map[topoLink]uint16)}
}

// link registers (or finds) the directed link from->to and returns its
// index.
func (b *topoBuilder) link(from, to int) uint16 {
	key := topoLink{from: from, to: to}
	if i, ok := b.idx[key]; ok {
		return i
	}
	i := uint16(len(b.t.links))
	b.t.links = append(b.t.links, key)
	b.idx[key] = i
	return i
}

// route stores the src->dst node route.
func (b *topoBuilder) route(src, dst int, r []uint16) {
	b.t.routes[src*b.t.nodes+dst] = r
}

// meshDims factors N into rows×cols with rows the largest divisor of N
// not exceeding √N (so rows <= cols; a prime N degenerates to a 1×N
// chain).
func meshDims(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// NewMeshTopology builds a 2D mesh: the nodes form a rows×cols grid
// (meshDims) with directed links between 4-neighbours and no wraparound.
// Routes use X-then-Y dimension order (columns first, then rows), the
// deterministic deadlock-free order of classic mesh routers.
func NewMeshTopology(nodes, ranksPerNode int) Topology {
	t := NewTopology(nodes, ranksPerNode)
	t.shape = ShapeMesh2D
	if nodes < 2 {
		return t
	}
	rows, cols := meshDims(nodes)
	t.routes = make([][]uint16, nodes*nodes)
	b := newTopoBuilder(&t)
	for n := 0; n < nodes; n++ {
		row, col := n/cols, n%cols
		if col+1 < cols {
			b.link(n, n+1)
		}
		if col > 0 {
			b.link(n, n-1)
		}
		if row+1 < rows {
			b.link(n, n+cols)
		}
		if row > 0 {
			b.link(n, n-cols)
		}
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			var r []uint16
			v := src
			for v%cols != dst%cols {
				next := v + 1
				if dst%cols < v%cols {
					next = v - 1
				}
				r = append(r, b.link(v, next))
				v = next
			}
			for v/cols != dst/cols {
				next := v + cols
				if dst/cols < v/cols {
					next = v - cols
				}
				r = append(r, b.link(v, next))
				v = next
			}
			b.route(src, dst, r)
		}
	}
	return t
}

// NewFatTreeTopology builds a two-level fat-tree: every group of up to
// fatTreeLeafArity nodes shares a leaf switch, every leaf connects to
// every spine switch, and an inter-leaf route climbs src -> leaf ->
// spine -> leaf -> dst, picking the spine as dst mod spines
// (deterministic destination-based ECMP). Leaf switches occupy vertex
// ids Nodes()..Nodes()+leaves-1 and spines follow the leaves.
func NewFatTreeTopology(nodes, ranksPerNode int) Topology {
	t := NewTopology(nodes, ranksPerNode)
	t.shape = ShapeFatTree
	if nodes < 2 {
		return t
	}
	leaves := (nodes + fatTreeLeafArity - 1) / fatTreeLeafArity
	spines := (leaves + 1) / 2
	if spines < 1 {
		spines = 1
	}
	leafBase, spineBase := nodes, nodes+leaves
	t.routes = make([][]uint16, nodes*nodes)
	b := newTopoBuilder(&t)
	leafOf := func(n int) int { return leafBase + n/fatTreeLeafArity }
	for n := 0; n < nodes; n++ {
		b.link(n, leafOf(n))
	}
	for n := 0; n < nodes; n++ {
		b.link(leafOf(n), n)
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			b.link(leafBase+l, spineBase+s)
		}
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			b.link(spineBase+s, leafBase+l)
		}
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			up, down := leafOf(src), leafOf(dst)
			if up == down {
				b.route(src, dst, []uint16{b.link(src, up), b.link(down, dst)})
				continue
			}
			sp := spineBase + dst%spines
			b.route(src, dst, []uint16{
				b.link(src, up), b.link(up, sp), b.link(sp, down), b.link(down, dst),
			})
		}
	}
	return t
}
