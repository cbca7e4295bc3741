// Package miniamr implements the paper's second evaluation application
// (§VI-B): a proxy of the miniAMR adaptive-mesh-refinement mini-app. A 3-D
// domain of blocks tracks an object moving through it; blocks near the
// object refine (up to MaxLevel, with 2:1 level balance), others coarsen.
// Every stage the application runs halo-exchange + stencil steps; every
// RefineEvery stages it rebuilds the mesh, migrates block data to the new
// owners (load balancing), and — in the TAGASPI variant — runs the
// sequential agreement phase of §VI-B, where neighbouring ranks agree on
// the receive-buffer offset and notification id of every RMA message.
//
// Substitution note (see DESIGN.md): real miniAMR refines on simulated
// physics; this proxy refines on a deterministic object trajectory, so
// every rank derives the same mesh without extra communication. The
// communication, refinement and load-balancing *patterns* — which are what
// the paper measures — are preserved: per-face messages from separate
// tasks, pack/unpack through single send/receive buffers, block migration
// over two-sided MPI, and the offset/notification agreement phase.
package miniamr

import (
	"fmt"
	"sort"
)

// Params configures a miniAMR proxy run.
type Params struct {
	Grid        [3]int // level-0 blocks per dimension
	Cells       int    // cells per block edge (even)
	Vars        int    // computed variables (Fig. 12 sweeps 10..40)
	Steps       int    // total timesteps
	RefineEvery int    // steps between mesh rebuilds
	MaxLevel    int    // maximum refinement level
	Radius      float64
	Verify      bool // run the real arithmetic and hold the cells (tests); cost is modelled always
}

// Leaf identifies one octree leaf by level and coordinates in level units.
type Leaf struct {
	L, X, Y, Z int
}

// extent returns the leaf's half-open coordinate box in level-0 units.
func (l Leaf) extent() (lo, hi [3]float64) {
	s := 1.0 / float64(int(1)<<l.L)
	lo = [3]float64{float64(l.X) * s, float64(l.Y) * s, float64(l.Z) * s}
	hi = [3]float64{lo[0] + s, lo[1] + s, lo[2] + s}
	return
}

// center returns the object position at the given epoch: a deterministic
// diagonal trajectory wrapping around the domain.
func (p Params) center(epoch int) [3]float64 {
	g := p.Grid
	t := float64(epoch) * 0.7
	return [3]float64{
		mod(0.5+t*1.0, float64(g[0])),
		mod(1.0+t*0.6, float64(g[1])),
		mod(1.5+t*0.8, float64(g[2])),
	}
}

func mod(x, m float64) float64 {
	for x >= m {
		x -= m
	}
	for x < 0 {
		x += m
	}
	return x
}

// desiredLevel returns the target refinement level of a box (in level-0
// units) at the given epoch: MaxLevel near the object, decaying with
// distance.
func (p Params) desiredLevel(lo, hi [3]float64, epoch int) int {
	c := p.center(epoch)
	d2 := 0.0
	for i := 0; i < 3; i++ {
		v := c[i]
		if v < lo[i] {
			d2 += (lo[i] - v) * (lo[i] - v)
		} else if v > hi[i] {
			d2 += (v - hi[i]) * (v - hi[i])
		}
	}
	r := p.Radius
	for lvl := p.MaxLevel; lvl > 0; lvl-- {
		reach := r * float64(p.MaxLevel-lvl+1)
		if d2 <= reach*reach {
			return lvl
		}
	}
	return 0
}

// Leaves computes the mesh of one epoch: top-down refinement by the
// desired level plus a 2:1 smoothing pass. Every rank computes the same
// set. The result is sorted canonically.
func (p Params) Leaves(epoch int) []Leaf {
	var leaves []Leaf
	var recur func(l Leaf)
	recur = func(l Leaf) {
		lo, hi := l.extent()
		if l.L < p.MaxLevel && p.desiredLevel(lo, hi, epoch) > l.L {
			for o := 0; o < 8; o++ {
				recur(Leaf{l.L + 1, l.X*2 + o&1, l.Y*2 + (o>>1)&1, l.Z*2 + (o>>2)&1})
			}
			return
		}
		leaves = append(leaves, l)
	}
	for x := 0; x < p.Grid[0]; x++ {
		for y := 0; y < p.Grid[1]; y++ {
			for z := 0; z < p.Grid[2]; z++ {
				recur(Leaf{0, x, y, z})
			}
		}
	}
	leaves = p.smooth(leaves)
	sortLeaves(leaves)
	return leaves
}

// smooth enforces the 2:1 balance: a leaf with a face neighbour more than
// one level finer is split; repeat to fixpoint.
func (p Params) smooth(leaves []Leaf) []Leaf {
	maxLevel := p.MaxLevel
	for {
		set := make(map[Leaf]bool, len(leaves))
		for _, l := range leaves {
			set[l] = true
		}
		// covered reports whether a region at the given leaf coords is
		// represented at a strictly finer level.
		finerAt := func(l Leaf) int {
			// Find the finest leaf inside l's region by probing one
			// descendant chain; since the tree is complete, any leaf in
			// the region bounds the level from below.
			max := l.L
			var probe func(c Leaf)
			probe = func(c Leaf) {
				if set[c] {
					if c.L > max {
						max = c.L
					}
					return
				}
				if c.L >= maxLevel {
					return
				}
				for o := 0; o < 8; o++ {
					probe(Leaf{c.L + 1, c.X*2 + o&1, c.Y*2 + (o>>1)&1, c.Z*2 + (o>>2)&1})
				}
			}
			probe(l)
			return max
		}
		var out []Leaf
		split := false
		for _, l := range leaves {
			mustSplit := false
			for f := 0; f < 6 && !mustSplit; f++ {
				n, ok := p.neighbourRegion(l, f)
				if !ok {
					continue
				}
				if finerAt(n)-l.L > 1 {
					mustSplit = true
				}
			}
			if mustSplit && l.L < maxLevel {
				split = true
				for o := 0; o < 8; o++ {
					out = append(out, Leaf{l.L + 1, l.X*2 + o&1, l.Y*2 + (o>>1)&1, l.Z*2 + (o>>2)&1})
				}
			} else {
				out = append(out, l)
			}
		}
		leaves = out
		if !split {
			return leaves
		}
	}
}

// faceDelta maps face index 0..5 to the axis offset (-x,+x,-y,+y,-z,+z).
var faceDelta = [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

// opposite returns the opposing face index.
func opposite(f int) int { return f ^ 1 }

// neighbourRegion returns the same-level coordinates adjacent to l across
// face f, and whether they are inside the domain.
func (p Params) neighbourRegion(l Leaf, f int) (Leaf, bool) {
	d := faceDelta[f]
	n := Leaf{l.L, l.X + d[0], l.Y + d[1], l.Z + d[2]}
	lim := [3]int{p.Grid[0] << l.L, p.Grid[1] << l.L, p.Grid[2] << l.L}
	if n.X < 0 || n.Y < 0 || n.Z < 0 || n.X >= lim[0] || n.Y >= lim[1] || n.Z >= lim[2] {
		return Leaf{}, false
	}
	return n, true
}

func sortLeaves(ls []Leaf) {
	sort.Slice(ls, func(i, j int) bool {
		a, b := ls[i], ls[j]
		if a.L != b.L {
			return a.L < b.L
		}
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
}

// Msg describes one halo-exchange message: the sender's leaf, the
// receiver's leaf and face (the face of dst being filled), the element
// count, and the message's tag. Sender and receiver derive identical
// message lists from the mesh.
type Msg struct {
	Src, Dst Leaf
	Face     int // face of Dst being filled
	Elems    int // per variable
	Tag      int // index in the receiver's Inbound list
}

// Epoch is the precomputed geometry of one mesh period.
type Epoch struct {
	Leaves []Leaf
	Owner  map[Leaf]int // partition: leaf -> rank
	Local  map[Leaf]int // leaf -> dense index in Leaves
	// ByRank[r] are the indices of leaves owned by rank r.
	ByRank [][]int
	// Inbound[r] lists messages whose Dst is owned by r, canonically
	// sorted; Outbound[r] those whose Src is owned by r.
	Inbound, Outbound [][]Msg
	// InBytes[r] and OutBytes[r] are the bytes rank r receives from and
	// sends to other ranks: the logical sizes of its receive and send
	// buffers, which hold every remote message at its own offset.
	InBytes, OutBytes []int
}

// buildEpoch computes leaves, partition and the message lists of an epoch.
func (p Params) buildEpoch(epoch, ranks int) *Epoch {
	e := &Epoch{Leaves: p.Leaves(epoch)}
	e.Owner = make(map[Leaf]int, len(e.Leaves))
	e.Local = make(map[Leaf]int, len(e.Leaves))
	e.ByRank = make([][]int, ranks)
	// Space-filling-curve-ish partition: contiguous chunks of the sorted
	// leaf order, sized as evenly as possible.
	n := len(e.Leaves)
	for i, l := range e.Leaves {
		r := i * ranks / n
		e.Owner[l] = r
		e.Local[l] = i
		e.ByRank[r] = append(e.ByRank[r], i)
	}
	e.Inbound = make([][]Msg, ranks)
	e.Outbound = make([][]Msg, ranks)
	set := make(map[Leaf]bool, n)
	for _, l := range e.Leaves {
		set[l] = true
	}
	half := p.Cells / 2
	for _, dst := range e.Leaves {
		for f := 0; f < 6; f++ {
			for _, src := range p.faceNeighbours(dst, f, set) {
				elems := p.Cells * p.Cells
				if src.L > dst.L {
					elems = half * half // a finer neighbour covers a quadrant
				}
				m := Msg{Src: src, Dst: dst, Face: f, Elems: elems}
				e.Inbound[e.Owner[dst]] = append(e.Inbound[e.Owner[dst]], m)
			}
		}
	}
	// Tag each message with its place in its receiver's list, then hand
	// the tagged copy to its sender.
	e.InBytes = make([]int, ranks)
	e.OutBytes = make([]int, ranks)
	for r, in := range e.Inbound {
		sortMsgs(in)
		for i := range in {
			in[i].Tag = i
			src := e.Owner[in[i].Src]
			e.Outbound[src] = append(e.Outbound[src], in[i])
			if src != r {
				e.InBytes[r] += p.msgBytes(in[i])
				e.OutBytes[src] += p.msgBytes(in[i])
			}
		}
	}
	for _, out := range e.Outbound {
		sortMsgs(out)
	}
	return e
}

// faceNeighbours returns the leaves adjacent to dst across face f: one at
// the same level, one coarser, or four finer (2:1 balance).
func (p Params) faceNeighbours(dst Leaf, f int, set map[Leaf]bool) []Leaf {
	n, ok := p.neighbourRegion(dst, f)
	if !ok {
		return nil
	}
	if set[n] {
		return []Leaf{n}
	}
	// Coarser neighbour: the parent region.
	parent := Leaf{n.L - 1, n.X / 2, n.Y / 2, n.Z / 2}
	if n.L > 0 && set[parent] {
		return []Leaf{parent}
	}
	// Finer neighbours: the four children of n touching the shared face.
	if n.L >= p.MaxLevel {
		return nil
	}
	back := opposite(f)
	var out []Leaf
	for o := 0; o < 8; o++ {
		c := Leaf{n.L + 1, n.X*2 + o&1, n.Y*2 + (o>>1)&1, n.Z*2 + (o>>2)&1}
		if childOnFace(o, back) && set[c] {
			out = append(out, c)
		}
	}
	sortLeaves(out)
	return out
}

// childOnFace reports whether child octant o touches face f of its parent.
func childOnFace(o, f int) bool {
	axis, side := f/2, f%2
	bit := (o >> axis) & 1
	return bit == side
}

func sortMsgs(ms []Msg) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Dst != b.Dst {
			return leafLess(a.Dst, b.Dst)
		}
		if a.Face != b.Face {
			return a.Face < b.Face
		}
		return leafLess(a.Src, b.Src)
	})
}

func leafLess(a, b Leaf) bool {
	if a.L != b.L {
		return a.L < b.L
	}
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}

// Epochs precomputes the geometry of every mesh period of a run.
func (p Params) Epochs(ranks int) []*Epoch {
	if p.RefineEvery <= 0 {
		panic("miniamr: RefineEvery must be positive")
	}
	n := (p.Steps + p.RefineEvery - 1) / p.RefineEvery
	out := make([]*Epoch, n)
	for i := range out {
		out[i] = p.buildEpoch(i, ranks)
	}
	return out
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	if p.Cells%2 != 0 || p.Cells < 2 {
		return fmt.Errorf("miniamr: Cells must be even and >= 2, got %d", p.Cells)
	}
	if p.Vars <= 0 || p.MaxLevel < 0 {
		return fmt.Errorf("miniamr: invalid Vars/MaxLevel")
	}
	return nil
}
