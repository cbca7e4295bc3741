// Package memory implements rank-local registered memory: the backing store
// for GASPI segments and MPI windows in the simulated cluster.
//
// A Segment is a contiguous, byte-addressed region owned by one rank and
// identified by a small integer, mirroring gaspi_segment_id_t. Remote ranks
// address a segment by (rank, segment id, offset); the fabric performs the
// actual copy between the two processes' segments, which in the simulator
// share one address space but are never aliased across ranks.
//
// Applications that compute on floating-point data keep it inside segments
// through the F64 view, which provides bounds-checked element access over
// the raw bytes without unsafe.
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
	"encoding/binary"
	"fmt"
	"math"
	"sync"
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
	return &Segment{id: id, size: size, buf: make([]byte, width)}
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

// F64 is a bounds-checked float64 view over a byte region, in little-endian
// layout (8 bytes per element).
type F64 struct {
	b []byte
}

// F64Bytes is the byte size of one F64 element.
const F64Bytes = 8

// F64View wraps a segment sub-range [byteOff, byteOff+8*n) as n float64s.
func F64View(s *Segment, byteOff, n int) (F64, error) {
	b, err := s.Slice(byteOff, n*F64Bytes)
	if err != nil {
		return F64{}, err
	}
	return F64{b: b}, nil
}

// F64Of wraps an existing byte slice; len(b) must be a multiple of 8.
func F64Of(b []byte) F64 {
	if len(b)%F64Bytes != 0 {
		panic(fmt.Sprintf("memory: F64Of over %d bytes, not a multiple of 8", len(b)))
	}
	return F64{b: b}
}

// Len returns the number of elements.
func (v F64) Len() int { return len(v.b) / F64Bytes }

// At returns element i.
func (v F64) At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.b[i*F64Bytes:]))
}

// Set stores x into element i.
func (v F64) Set(i int, x float64) {
	binary.LittleEndian.PutUint64(v.b[i*F64Bytes:], math.Float64bits(x))
}

// Fill sets every element to x.
func (v F64) Fill(x float64) {
	bits := math.Float64bits(x)
	for i := 0; i < len(v.b); i += F64Bytes {
		binary.LittleEndian.PutUint64(v.b[i:], bits)
	}
}

// CopyIn copies the Go slice src into the view starting at element off.
func (v F64) CopyIn(off int, src []float64) {
	for i, x := range src {
		v.Set(off+i, x)
	}
}

// CopyOut copies n elements starting at off into a new Go slice.
func (v F64) CopyOut(off, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v.At(off + i)
	}
	return out
}

// I64 is a bounds-checked int64 view over a byte region (little-endian).
type I64 struct {
	b []byte
}

// I64Bytes is the byte size of one I64 element.
const I64Bytes = 8

// I64Of wraps an existing byte slice; len(b) must be a multiple of 8.
func I64Of(b []byte) I64 {
	if len(b)%I64Bytes != 0 {
		panic(fmt.Sprintf("memory: I64Of over %d bytes, not a multiple of 8", len(b)))
	}
	return I64{b: b}
}

// Len returns the number of elements.
func (v I64) Len() int { return len(v.b) / I64Bytes }

// At returns element i.
func (v I64) At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.b[i*I64Bytes:]))
}

// Set stores x into element i.
func (v I64) Set(i int, x int64) {
	binary.LittleEndian.PutUint64(v.b[i*I64Bytes:], uint64(x))
}
