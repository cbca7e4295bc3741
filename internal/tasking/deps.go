package tasking

import (
	"fmt"
	"slices"
)

// AccessMode is the access a task declares on a region, as in the OmpSs-2
// depend clause.
type AccessMode uint8

// Access modes.
const (
	AccessIn    AccessMode = iota // read: depends on the last writer
	AccessOut                     // write: depends on all prior accessors
	AccessInOut                   // read-write: same ordering as write
)

func (m AccessMode) String() string {
	switch m {
	case AccessIn:
		return "in"
	case AccessOut:
		return "out"
	case AccessInOut:
		return "inout"
	}
	return fmt.Sprintf("AccessMode(%d)", uint8(m))
}

// Dep is one region dependency: an access mode over the half-open range
// [Lo, Hi) of the object identified by Base. Base may be any comparable
// value; by convention it is a pointer (&buf[0], &flag) or a small key
// struct, so distinct buffers never collide.
type Dep struct {
	Mode   AccessMode
	Base   any
	Lo, Hi int
}

// In declares a read dependency over [lo, hi) of base.
func In(base any, lo, hi int) Dep { return Dep{Mode: AccessIn, Base: base, Lo: lo, Hi: hi} }

// Out declares a write dependency over [lo, hi) of base.
func Out(base any, lo, hi int) Dep { return Dep{Mode: AccessOut, Base: base, Lo: lo, Hi: hi} }

// InOut declares a read-write dependency over [lo, hi) of base.
func InOut(base any, lo, hi int) Dep { return Dep{Mode: AccessInOut, Base: base, Lo: lo, Hi: hi} }

// InVal declares a read dependency on the whole of base (range [0,1)):
// the idiom for scalar sentinels such as notification flags.
func InVal(base any) Dep { return Dep{Mode: AccessIn, Base: base, Lo: 0, Hi: 1} }

// OutVal declares a write dependency on the whole of base (range [0,1)).
func OutVal(base any) Dep { return Dep{Mode: AccessOut, Base: base, Lo: 0, Hi: 1} }

// InOutVal declares a read-write dependency on the whole of base.
func InOutVal(base any) Dep { return Dep{Mode: AccessInOut, Base: base, Lo: 0, Hi: 1} }

// interval is a maximal range of one object with a homogeneous accessor
// history: the last writer and the readers that accessed it since.
type interval struct {
	lo, hi  int
	writer  *Task
	readers []*Task
}

// objectDeps tracks the access history of one Base as a sorted list of
// non-overlapping intervals.
type objectDeps struct {
	ivs []interval
}

// depRegistry is the per-runtime dependency domain. All methods must be
// called with the runtime lock held.
type depRegistry struct {
	objs map[any]*objectDeps

	// scratch is the spare interval buffer of the slow path in register:
	// the overlapped run is rebuilt into scratch and spliced into the
	// object's list, so repeated range splits reuse one buffer instead of
	// growing a fresh one per call. Guarded by the runtime lock like
	// everything else here.
	scratch []interval
}

func newDepRegistry() *depRegistry {
	return &depRegistry{objs: make(map[any]*objectDeps)}
}

// register records t's access and links t behind every predecessor found.
// It returns the number of dependency edges added (t.preds increments).
func (r *depRegistry) register(t *Task, d Dep) int {
	if d.Lo >= d.Hi {
		panic(fmt.Sprintf("tasking: empty dependency range [%d,%d)", d.Lo, d.Hi))
	}
	od := r.objs[d.Base]
	if od == nil {
		od = &objectDeps{}
		r.objs[d.Base] = od
	}
	edges := 0
	addEdge := func(pred *Task) {
		if pred == nil || pred == t || pred.state == stateCompleted {
			return
		}
		pred.succs = append(pred.succs, t)
		edges++
	}

	lo, hi := d.Lo, d.Hi
	i := searchIvs(od.ivs, lo)
	if i == len(od.ivs) {
		// Past the last interval (or the object's first access): nothing
		// precedes the range, which is a first access appended in place.
		od.ivs = append(od.ivs, r.fresh(t, d.Mode, lo, hi))
		return edges
	}

	// Fast path: the range coincides with one existing interval, as in
	// repeated per-slot dependencies (the dominant pattern in applications
	// that re-register the same block/slot ranges every iteration). The
	// interval is updated in place with no slice surgery.
	if iv := &od.ivs[i]; iv.lo == lo && iv.hi == hi {
		switch d.Mode {
		case AccessIn:
			addEdge(iv.writer)
			iv.readers = append(iv.readers, t)
		default:
			addEdge(iv.writer)
			for _, rd := range iv.readers {
				addEdge(rd)
			}
			iv.writer = t
			// Zero the old readers before truncating, so the spare
			// capacity keeps no completed task (and its closures) alive.
			clear(iv.readers)
			iv.readers = iv.readers[:0]
		}
		return edges
	}

	// Slow path: rebuild the run od.ivs[i:j] that the range overlaps, with
	// the gaps between, into scratch, and splice it in place of the run.
	// The intervals before and after the run stay where they are.
	out := r.scratch[:0]
	cursor := lo
	j := i
	for ; j < len(od.ivs) && od.ivs[j].lo < hi; j++ {
		iv := od.ivs[j]
		if cursor < iv.lo {
			// Gap [cursor, iv.lo): first access to this sub-range.
			out = append(out, r.fresh(t, d.Mode, cursor, iv.lo))
			cursor = iv.lo
		}
		if iv.lo < cursor {
			// Leading part of iv untouched by the new range. Readers are
			// copied so pieces never alias (the in-place fast path appends
			// to reader slices).
			out = append(out, interval{lo: iv.lo, hi: cursor, writer: iv.writer,
				readers: copyReaders(iv.readers)})
		}
		ovHi := min(iv.hi, hi)
		// Overlapping part [cursor, ovHi): apply the access.
		switch d.Mode {
		case AccessIn:
			addEdge(iv.writer)
			nv := interval{lo: cursor, hi: ovHi, writer: iv.writer}
			nv.readers = append(append([]*Task(nil), iv.readers...), t)
			out = append(out, nv)
		case AccessOut, AccessInOut:
			addEdge(iv.writer)
			for _, rd := range iv.readers {
				addEdge(rd)
			}
			out = append(out, interval{lo: cursor, hi: ovHi, writer: t})
		}
		if iv.hi > hi {
			// Trailing part of iv beyond the new range (readers copied; see
			// the leading-part comment).
			out = append(out, interval{lo: hi, hi: iv.hi, writer: iv.writer,
				readers: copyReaders(iv.readers)})
		}
		cursor = ovHi
	}
	if cursor < hi {
		out = append(out, r.fresh(t, d.Mode, cursor, hi))
	}
	// Replace zeroes the slots a shrinking splice vacates; scratch is
	// zeroed too, so neither array keeps a replaced interval's tasks alive.
	od.ivs = slices.Replace(od.ivs, i, j, out...)
	clear(out)
	r.scratch = out[:0]
	return edges
}

// fresh builds the interval for a first access to [lo, hi).
func (r *depRegistry) fresh(t *Task, m AccessMode, lo, hi int) interval {
	switch m {
	case AccessIn:
		return interval{lo: lo, hi: hi, readers: []*Task{t}}
	default:
		return interval{lo: lo, hi: hi, writer: t}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// copyReaders clones a reader list so interval pieces never share backing
// arrays.
func copyReaders(rs []*Task) []*Task {
	if len(rs) == 0 {
		return nil
	}
	return append(make([]*Task, 0, len(rs)), rs...)
}

// searchIvs returns the index of the first interval with hi > lo
// (intervals are sorted and non-overlapping).
func searchIvs(ivs []interval, lo int) int {
	n := len(ivs)
	i, j := 0, n
	for i < j {
		h := (i + j) / 2
		if ivs[h].hi <= lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}
