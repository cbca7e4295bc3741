package miniamr

import (
	"fmt"
	"sort"
)

// block holds one leaf's cell data: Vars variables of (Cells+2)^3 values
// (interior 1..Cells plus one halo layer), double-buffered for the
// Jacobi-style stencil.
type block struct {
	leaf     Leaf
	cur, nxt []float64
}

// dims bundles the indexing helpers of one parameter set.
func (p Params) stride() (s1, s2, svar int) {
	e := p.Cells + 2
	return e * e, e, e * e * e
}

// cellIdx maps (variable, x, y, z) with x,y,z in 0..Cells+1 to the flat
// index.
func (p Params) cellIdx(v, x, y, z int) int {
	e := p.Cells + 2
	return ((v*e+x)*e+y)*e + z
}

func (p Params) newBlock(l Leaf) *block {
	n := p.Vars * (p.Cells + 2) * (p.Cells + 2) * (p.Cells + 2)
	return &block{leaf: l, cur: make([]float64, n), nxt: make([]float64, n)}
}

// initBlock fills a block with the deterministic initial condition: a
// smooth function of the global cell position and the variable index.
func (p Params) initBlock(b *block) {
	n := p.Cells
	scale := 1.0 / float64(int(1)<<b.leaf.L)
	for v := 0; v < p.Vars; v++ {
		for x := 1; x <= n; x++ {
			gx := (float64(b.leaf.X) + (float64(x)-0.5)/float64(n)) * scale
			for y := 1; y <= n; y++ {
				gy := (float64(b.leaf.Y) + (float64(y)-0.5)/float64(n)) * scale
				for z := 1; z <= n; z++ {
					gz := (float64(b.leaf.Z) + (float64(z)-0.5)/float64(n)) * scale
					b.cur[p.cellIdx(v, x, y, z)] =
						float64(v+1) + gx*0.5 + gy*0.25 + gz*0.125
				}
			}
		}
	}
}

// fillBoundary copies the adjacent interior layer into the halo of faces
// with no neighbour (zero-flux boundary).
func (p Params) fillBoundary(b *block, f int) {
	n := p.Cells
	axis, side := f/2, f%2
	halo, inner := 0, 1
	if side == 1 {
		halo, inner = n+1, n
	}
	ws, as, cs := p.faceStrides(axis)
	_, _, svar := p.stride()
	for v := 0; v < p.Vars; v++ {
		hb, ib := v*svar+halo*ws, v*svar+inner*ws
		for a := 1; a <= n; a++ {
			hi, ii := hb+a*as+cs, ib+a*as+cs
			for c := 1; c <= n; c++ {
				b.cur[hi] = b.cur[ii]
				hi += cs
				ii += cs
			}
		}
	}
}

// faceStrides returns the flat-index strides of the w (normal) and (a, c)
// (tangential, ascending) coordinates of a face plane normal to axis, so hot
// loops can index by increment: v*svar + w*ws + a*as + c*cs equals
// cellIdx(v, w, a, c) for axis 0, cellIdx(v, a, w, c) for axis 1 and
// cellIdx(v, a, c, w) for axis 2.
func (p Params) faceStrides(axis int) (ws, as, cs int) {
	s1, s2, _ := p.stride()
	switch axis {
	case 0:
		return s1, s2, 1
	case 1:
		return s2, s1, 1
	default:
		return 1, s1, s2
	}
}

// step performs the 7-point Jacobi-style stencil over the interior and
// swaps the buffers.
func (p Params) step(b *block) {
	n := p.Cells
	s1, s2, _ := p.stride()
	for v := 0; v < p.Vars; v++ {
		for x := 1; x <= n; x++ {
			for y := 1; y <= n; y++ {
				i := p.cellIdx(v, x, y, 1)
				for z := 1; z <= n; z++ {
					b.nxt[i] = (b.cur[i] + b.cur[i-s1] + b.cur[i+s1] +
						b.cur[i-s2] + b.cur[i+s2] + b.cur[i-1] + b.cur[i+1]) / 7
					i++
				}
			}
		}
	}
	b.cur, b.nxt = b.nxt, b.cur
}

// tangential returns the two tangential axes of a face axis, ascending.
func tangential(axis int) (int, int) {
	switch axis {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// coords returns the leaf coordinates indexed by axis.
func (l Leaf) coords() [3]int { return [3]int{l.X, l.Y, l.Z} }

// packMsg extracts from src the values destined for dst's halo face, in
// (variable, a, b) order, exactly as unpackMsg consumes them. The sender
// resamples: averaging towards a coarser receiver, raw towards an equal
// one, and injection values (replicated coarse cells) towards a finer one.
func (p Params) packMsg(src *block, m Msg, out []float64) {
	n := p.Cells
	axis := m.Face / 2
	t1, t2 := tangential(axis)
	// The source layer faces the opposite direction of the dst face.
	layer := n
	if m.Face%2 == 1 {
		layer = 1
	}
	ws, as, cs := p.faceStrides(axis)
	_, _, svar := p.stride()
	k := 0
	switch {
	case m.Src.L == m.Dst.L:
		for v := 0; v < p.Vars; v++ {
			base := v*svar + layer*ws
			for a := 1; a <= n; a++ {
				i := base + a*as + cs
				for c := 1; c <= n; c++ {
					out[k] = src.cur[i]
					k++
					i += cs
				}
			}
		}
	case m.Src.L > m.Dst.L:
		// Finer source covering a quadrant of dst's face: average 2x2.
		h := n / 2
		for v := 0; v < p.Vars; v++ {
			base := v*svar + layer*ws
			for a := 1; a <= h; a++ {
				r0, r1 := base+(2*a-1)*as, base+2*a*as
				for c := 1; c <= h; c++ {
					c0, c1 := (2*c-1)*cs, 2*c*cs
					sum := src.cur[r0+c0] + src.cur[r0+c1] +
						src.cur[r1+c0] + src.cur[r1+c1]
					out[k] = sum / 4
					k++
				}
			}
		}
	default:
		// Coarser source: dst's full face by injection from the quadrant
		// of src's face that dst occupies.
		sc, dc := m.Src.coords(), m.Dst.coords()
		q1 := dc[t1] - 2*sc[t1] // 0 or 1
		q2 := dc[t2] - 2*sc[t2]
		h := n / 2
		for v := 0; v < p.Vars; v++ {
			base := v*svar + layer*ws
			for a := 1; a <= n; a++ {
				row := base + (q1*h+(a+1)/2)*as
				for c := 1; c <= n; c++ {
					out[k] = src.cur[row+(q2*h+(c+1)/2)*cs]
					k++
				}
			}
		}
	}
	if k != m.Elems*p.Vars {
		panic(fmt.Sprintf("miniamr: packed %d values, expected %d", k, m.Elems*p.Vars))
	}
}

// unpackMsg places packed values into dst's halo face (full face or the
// quadrant covered by a finer source).
func (p Params) unpackMsg(dst *block, m Msg, in []float64) {
	n := p.Cells
	axis := m.Face / 2
	t1, t2 := tangential(axis)
	halo := 0
	if m.Face%2 == 1 {
		halo = n + 1
	}
	ws, as, cs := p.faceStrides(axis)
	_, _, svar := p.stride()
	k := 0
	if m.Src.L > m.Dst.L {
		// Quadrant fill: offsets from the fine source's position.
		sc, dc := m.Src.coords(), m.Dst.coords()
		q1 := sc[t1] - 2*dc[t1]
		q2 := sc[t2] - 2*dc[t2]
		h := n / 2
		for v := 0; v < p.Vars; v++ {
			base := v*svar + halo*ws
			for a := 1; a <= h; a++ {
				i := base + (q1*h+a)*as + (q2*h+1)*cs
				for c := 1; c <= h; c++ {
					dst.cur[i] = in[k]
					k++
					i += cs
				}
			}
		}
		return
	}
	for v := 0; v < p.Vars; v++ {
		base := v*svar + halo*ws
		for a := 1; a <= n; a++ {
			i := base + a*as + cs
			for c := 1; c <= n; c++ {
				dst.cur[i] = in[k]
				k++
				i += cs
			}
		}
	}
}

// interior packs a block's interior (Vars x Cells^3) for migration.
func (p Params) interior(b *block, out []float64) {
	n := p.Cells
	k := 0
	for v := 0; v < p.Vars; v++ {
		for x := 1; x <= n; x++ {
			for y := 1; y <= n; y++ {
				i := p.cellIdx(v, x, y, 1)
				for z := 1; z <= n; z++ {
					out[k] = b.cur[i]
					k++
					i++
				}
			}
		}
	}
}

// InteriorElems is the migration payload size per block, in elements.
func (p Params) InteriorElems() int { return p.Vars * p.Cells * p.Cells * p.Cells }

// remapInto accumulates old-leaf interior data (as packed by interior)
// into a new block being assembled: same level copies, coarser-to-finer
// injects, finer-to-coarser averages. acc/cnt have interior layout.
func (p Params) remapInto(nl Leaf, ol Leaf, data []float64, acc []float64, cnt []int32) {
	n := p.Cells
	dl := nl.L - ol.L
	at := func(v, x, y, z int) float64 { // old interior accessor (1-based)
		return data[((v*n+(x-1))*n+(y-1))*n+(z-1)]
	}
	idx := func(v, x, y, z int) int { // new interior index (1-based)
		return ((v*n+(x-1))*n+(y-1))*n + (z - 1)
	}
	switch {
	case dl == 0:
		if nl != ol {
			return
		}
		for i := range acc {
			acc[i] += data[i]
			cnt[i]++
		}
	case dl > 0:
		// New block is finer: it occupies a sub-box of the old block.
		scale := 1 << dl
		if ol.X != nl.X/scale || ol.Y != nl.Y/scale || ol.Z != nl.Z/scale {
			return
		}
		// Offset of the new block inside the old one, in old-cell units.
		offX := (nl.X % scale) * n / scale
		offY := (nl.Y % scale) * n / scale
		offZ := (nl.Z % scale) * n / scale
		for v := 0; v < p.Vars; v++ {
			for x := 1; x <= n; x++ {
				ox := offX + (x-1)/scale + 1
				for y := 1; y <= n; y++ {
					oy := offY + (y-1)/scale + 1
					for z := 1; z <= n; z++ {
						oz := offZ + (z-1)/scale + 1
						i := idx(v, x, y, z)
						acc[i] += at(v, ox, oy, oz)
						cnt[i]++
					}
				}
			}
		}
	default:
		// New block is coarser: the old block fills a sub-box of it.
		scale := 1 << (-dl)
		if nl.X != ol.X/scale || nl.Y != ol.Y/scale || nl.Z != ol.Z/scale {
			return
		}
		offX := (ol.X % scale) * n / scale
		offY := (ol.Y % scale) * n / scale
		offZ := (ol.Z % scale) * n / scale
		for v := 0; v < p.Vars; v++ {
			for x := 1; x <= n; x++ {
				nx := offX + (x-1)/scale + 1
				for y := 1; y <= n; y++ {
					ny := offY + (y-1)/scale + 1
					for z := 1; z <= n; z++ {
						nz := offZ + (z-1)/scale + 1
						i := idx(v, nx, ny, nz)
						acc[i] += at(v, x, y, z)
						cnt[i]++
					}
				}
			}
		}
	}
}

// finishRemap turns accumulated sums into cell values.
func finishRemap(acc []float64, cnt []int32, out []float64) {
	for i := range acc {
		if cnt[i] > 0 {
			out[i] = acc[i] / float64(cnt[i])
		}
	}
}

// setInterior writes packed interior values into a block.
func (p Params) setInterior(b *block, in []float64) {
	n := p.Cells
	k := 0
	for v := 0; v < p.Vars; v++ {
		for x := 1; x <= n; x++ {
			for y := 1; y <= n; y++ {
				i := p.cellIdx(v, x, y, 1)
				for z := 1; z <= n; z++ {
					b.cur[i] = in[k]
					k++
					i++
				}
			}
		}
	}
}

// Transfer is one block migration: old leaf Src moving (or contributing)
// from rank From to the owner of new leaves on rank To.
type Transfer struct {
	Src      Leaf
	From, To int
}

// transition computes the migrations between two epochs: for every new
// leaf, the old leaves intersecting it must be available at the new owner.
// Duplicate (src, from, to) triples are sent once. The result is sorted
// canonically so both sides derive identical tag assignments.
func transition(old, next *Epoch) []Transfer {
	seen := make(map[Transfer]bool)
	var out []Transfer
	oldSet := make(map[Leaf]bool, len(old.Leaves))
	for _, l := range old.Leaves {
		oldSet[l] = true
	}
	for _, nl := range next.Leaves {
		to := next.Owner[nl]
		for _, ol := range sourcesOf(nl, oldSet) {
			tr := Transfer{Src: ol, From: old.Owner[ol], To: to}
			if tr.From == tr.To || seen[tr] {
				continue
			}
			seen[tr] = true
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return leafLess(a.Src, b.Src)
	})
	return out
}

// sourcesOf returns the old leaves whose regions intersect nl: itself, an
// ancestor, or all descendants present in the old mesh.
func sourcesOf(nl Leaf, oldSet map[Leaf]bool) []Leaf {
	if oldSet[nl] {
		return []Leaf{nl}
	}
	// Ancestor?
	a := nl
	for a.L > 0 {
		a = Leaf{a.L - 1, a.X / 2, a.Y / 2, a.Z / 2}
		if oldSet[a] {
			return []Leaf{a}
		}
	}
	// Descendants.
	var out []Leaf
	var recur func(l Leaf)
	recur = func(l Leaf) {
		if oldSet[l] {
			out = append(out, l)
			return
		}
		if l.L > nl.L+12 { // safety bound; meshes are shallow
			return
		}
		for o := 0; o < 8; o++ {
			recur(Leaf{l.L + 1, l.X*2 + o&1, l.Y*2 + (o>>1)&1, l.Z*2 + (o>>2)&1})
		}
	}
	for o := 0; o < 8; o++ {
		recur(Leaf{nl.L + 1, nl.X*2 + o&1, nl.Y*2 + (o>>1)&1, nl.Z*2 + (o>>2)&1})
	}
	sortLeaves(out)
	return out
}
