// Package memory implements rank-local registered memory: the backing store
// for GASPI segments and MPI windows in the simulated cluster.
//
// A Segment is a contiguous, byte-addressed region owned by one rank and
// identified by a small integer, mirroring gaspi_segment_id_t. Remote ranks
// address a segment by (rank, segment id, offset); the fabric performs the
// actual copy between the two processes' segments, which in the simulator
// share one address space but are never aliased across ranks.
//
// Applications compute in place on the bytes the one-sided calls move, as
// the paper's codes do on their double arrays: Float64s and Int64s view a
// byte slice as native numbers without copying, and F64View views a
// segment range. A view uses the host's byte order, and its bytes must
// start on an 8-byte boundary. Every segment starts on one, so any range
// at an offset that is a multiple of 8 qualifies. Payloads move
// between ranks of one host process byte for byte, so no byte order is
// ever converted.
//
// A segment's logical size and its backing store can differ. A timed
// segment (NewTimedSegment) is addressed by logical offset like any other,
// but holds one slot that every range reuses: a run that models the cost of
// its data without computing on it keeps one message's bytes, not the whole
// buffer's (DESIGN.md §15).
//
// A Snapshot is the payload of a message in flight: the bytes its send
// buffer held at local completion, shared between messages that sent the
// same bytes (snapshot.go).
package memory

import (
	"fmt"
	"sync"
	"unsafe"
)

// SegmentID identifies a segment within one rank's registry.
type SegmentID uint8

// Segment is a contiguous registered memory region.
type Segment struct {
	id   SegmentID
	size int    // logical size in bytes
	buf  []byte // backing store: size bytes, or one slot (NewTimedSegment)
}

// NewSegment allocates a zeroed segment of size bytes.
func NewSegment(id SegmentID, size int) *Segment { return NewTimedSegment(id, size, size) }

// NewTimedSegment allocates a segment of logical size bytes backed by one
// zeroed slot of width bytes: every in-range Slice returns the slot's
// first n bytes, whatever its offset. A width equal to size is a plain
// segment. It panics unless 0 ≤ width ≤ size.
func NewTimedSegment(id SegmentID, size, width int) *Segment {
	if width < 0 || width > size {
		panic(fmt.Sprintf("memory: segment %d: width %d outside [0, size %d]", id, width, size))
	}
	// A capacity that is a whole number of words puts the slot on an
	// 8-byte boundary even below 16 bytes, where Go's allocator aligns a
	// 9- to 15-byte object by its size alone.
	return &Segment{id: id, size: size, buf: make([]byte, width, (width+F64Bytes-1)&^(F64Bytes-1))}
}

// ID returns the segment's identifier.
func (s *Segment) ID() SegmentID { return s.id }

// Size returns the segment's logical size in bytes.
func (s *Segment) Size() int { return s.size }

// Bytes returns the backing store, a timed segment's slot. Mutating it is
// allowed; it is the segment's memory.
func (s *Segment) Bytes() []byte { return s.buf }

// Slice returns the bytes of the logical range [off, off+n), or an error
// if the range leaves the segment. A timed segment returns its slot's
// first n bytes, and an error if n exceeds the slot.
func (s *Segment) Slice(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > s.size {
		return nil, fmt.Errorf("memory: range [%d,%d) outside segment %d of size %d",
			off, off+n, s.id, s.size)
	}
	if len(s.buf) == s.size {
		return s.buf[off : off+n], nil
	}
	if n > len(s.buf) {
		return nil, fmt.Errorf("memory: %d bytes exceed segment %d's %d-byte slot", n, s.id, len(s.buf))
	}
	return s.buf[:n], nil
}

// Copy transfers n bytes from src at srcOff into dst at dstOff.
func Copy(dst *Segment, dstOff int, src *Segment, srcOff, n int) error {
	db, err := dst.Slice(dstOff, n)
	if err != nil {
		return fmt.Errorf("memory: copy destination: %w", err)
	}
	sb, err := src.Slice(srcOff, n)
	if err != nil {
		return fmt.Errorf("memory: copy source: %w", err)
	}
	copy(db, sb)
	return nil
}

// Registry holds the segments registered by one rank.
type Registry struct {
	mu       sync.RWMutex
	segments map[SegmentID]*Segment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{segments: make(map[SegmentID]*Segment)}
}

// Create allocates and registers a segment of logical size bytes backed
// by width bytes (NewTimedSegment). It fails if id is taken.
func (r *Registry) Create(id SegmentID, size, width int) (*Segment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.segments[id]; ok {
		return nil, fmt.Errorf("memory: segment %d already registered", id)
	}
	s := NewTimedSegment(id, size, width)
	r.segments[id] = s
	return s, nil
}

// Lookup returns the segment with the given id.
func (r *Registry) Lookup(id SegmentID) (*Segment, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.segments[id]
	if !ok {
		return nil, fmt.Errorf("memory: segment %d not registered", id)
	}
	return s, nil
}

// F64Bytes is the byte size of one element of a native view.
const F64Bytes = 8

// F64View returns the segment sub-range [byteOff, byteOff+8*n) as n
// float64s (Float64s). It fails if the range leaves the segment or if
// byteOff is not a multiple of 8.
func F64View(s *Segment, byteOff, n int) ([]float64, error) {
	if byteOff%F64Bytes != 0 {
		return nil, fmt.Errorf("memory: view offset %d in segment %d is not a multiple of 8", byteOff, s.id)
	}
	b, err := s.Slice(byteOff, n*F64Bytes)
	if err != nil {
		return nil, err
	}
	return Float64s(b), nil
}

// Float64s returns the bytes b as float64s in the host's byte order. It is
// a view, not a copy: a write through either slice is a write to both.
// It panics unless len(b) is a multiple of 8 and b starts on an 8-byte
// boundary.
func Float64s(b []byte) []float64 { return unsafe.Slice((*float64)(viewBase(b)), len(b)/F64Bytes) }

// Int64s is Float64s for int64s.
func Int64s(b []byte) []int64 { return unsafe.Slice((*int64)(viewBase(b)), len(b)/F64Bytes) }

// viewBase returns the address of b's first byte, nil if b is empty, and
// panics unless b holds whole aligned 8-byte words. Go allocates every
// byte slice made with a length that is a multiple of 8 on an 8-byte
// boundary, so only a sub-slice at an offset that is not a multiple of 8
// fails.
func viewBase(b []byte) unsafe.Pointer {
	if len(b)%F64Bytes != 0 {
		panic(fmt.Sprintf("memory: view over %d bytes, not a multiple of 8", len(b)))
	}
	if len(b) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%F64Bytes != 0 {
		panic(fmt.Sprintf("memory: view over bytes at %p, not 8-byte aligned", p))
	}
	return p
}
