package memory

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := NewSegment(3, 128)
	if s.ID() != 3 {
		t.Fatalf("ID = %d, want 3", s.ID())
	}
	if s.Size() != 128 {
		t.Fatalf("Size = %d, want 128", s.Size())
	}
	if len(s.Bytes()) != 128 {
		t.Fatalf("len(Bytes) = %d, want 128", len(s.Bytes()))
	}
	for _, b := range s.Bytes() {
		if b != 0 {
			t.Fatal("segment not zeroed")
		}
	}
}

func TestSegmentSliceBounds(t *testing.T) {
	s := NewSegment(0, 16)
	cases := []struct {
		off, n int
		ok     bool
	}{
		{0, 16, true},
		{0, 0, true},
		{16, 0, true},
		{8, 8, true},
		{8, 9, false},
		{-1, 4, false},
		{0, -1, false},
		{17, 0, false},
	}
	for _, c := range cases {
		_, err := s.Slice(c.off, c.n)
		if (err == nil) != c.ok {
			t.Errorf("Slice(%d,%d): err=%v, want ok=%v", c.off, c.n, err, c.ok)
		}
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegment(0, -1)
}

func TestCopyBetweenSegments(t *testing.T) {
	src := NewSegment(0, 32)
	dst := NewSegment(1, 32)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	if err := Copy(dst, 8, src, 4, 16); err != nil {
		t.Fatal(err)
	}
	want := src.Bytes()[4:20]
	got := dst.Bytes()[8:24]
	if !bytes.Equal(got, want) {
		t.Fatalf("copy mismatch: got %v want %v", got, want)
	}
	// Out-of-range copies must fail on either side.
	if err := Copy(dst, 30, src, 0, 4); err == nil {
		t.Fatal("destination overflow not detected")
	}
	if err := Copy(dst, 0, src, 30, 4); err == nil {
		t.Fatal("source overflow not detected")
	}
}

// TestTimedSegmentMatchesFullSegment pins the timed-segment contract: a
// timed segment and a plain one of the same logical size reject the same
// ranges with the same error, the timed one answers every in-range Slice
// with its one slot, and a range wider than the slot is an error.
func TestTimedSegmentMatchesFullSegment(t *testing.T) {
	const size, width = 256, 16
	timed, full := NewTimedSegment(0, size, width), NewSegment(0, size)
	if timed.Size() != size || len(timed.Bytes()) != width {
		t.Fatalf("timed segment: Size %d, %d backing bytes; want %d, %d",
			timed.Size(), len(timed.Bytes()), size, width)
	}
	for _, r := range [][2]int{{-1, 4}, {size - 3, 4}, {size, 1}, {0, size + 1}, {4, -1}} {
		_, terr := timed.Slice(r[0], r[1])
		_, ferr := full.Slice(r[0], r[1])
		if terr == nil || ferr == nil || terr.Error() != ferr.Error() {
			t.Errorf("Slice(%d,%d): timed error %v, full error %v; want one error for both", r[0], r[1], terr, ferr)
		}
	}
	timed.Bytes()[0] = 7
	for _, off := range []int{0, 8, 100, size - width} {
		b, err := timed.Slice(off, width)
		if err != nil || len(b) != width || &b[0] != &timed.Bytes()[0] {
			t.Errorf("Slice(%d,%d) = %d bytes, %v; want the slot", off, width, len(b), err)
		}
	}
	if _, err := timed.Slice(0, width+1); err == nil {
		t.Error("a range wider than the slot must fail")
	}
	for _, w := range []int{size + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTimedSegment(0, %d, %d) did not panic", size, w)
				}
			}()
			NewTimedSegment(0, size, w)
		}()
	}
	// Copy between two timed segments moves slot to slot.
	src, dst := NewTimedSegment(1, size, width), NewTimedSegment(2, size, width)
	copy(src.Bytes(), "sixteen bytes!!!")
	if err := Copy(dst, 200, src, 64, width); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Errorf("timed Copy: slot holds %q, want %q", dst.Bytes(), src.Bytes())
	}
	if err := Copy(dst, size-8, src, 0, width); err == nil {
		t.Error("a timed Copy past the logical size must fail")
	}
}

// raceEnabled is set by race_on_test.go when the race detector is
// compiled in; its instrumentation allocates, so the heap gate skips.
var raceEnabled bool

// TestTimedSegmentHoldsOneSlot is the allocation gate of scripts/ci.sh
// behind the apps' timed mode: a timed segment of 1 GiB logical size must
// keep only its slot on the heap.
func TestTimedSegmentHoldsOneSlot(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are inflated by race-detector instrumentation")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewTimedSegment(0, 1<<30, 64)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("NewTimedSegment(0, 1 GiB, 64) allocated %d bytes, want < 1 MiB", grew)
	}
	runtime.KeepAlive(s)
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s, err := r.Create(5, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(5, 64, 64); err == nil {
		t.Fatal("duplicate Create must fail")
	}
	got, err := r.Lookup(5)
	if err != nil || got != s {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup(6); err == nil {
		t.Fatal("Lookup of missing id must fail")
	}
}

func TestF64ViewRoundTrip(t *testing.T) {
	s := NewSegment(0, 80)
	v, err := F64View(s, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 8 {
		t.Fatalf("len = %d, want 8", len(v))
	}
	for i := range v {
		v[i] = float64(i) * 1.5
	}
	for i := range v {
		if got := v[i]; got != float64(i)*1.5 {
			t.Fatalf("v[%d] = %v, want %v", i, got, float64(i)*1.5)
		}
	}
	// The view starts at byte 8: byte 0..7 must be untouched, and its
	// elements are the segment's own bytes in the host's order.
	for i := 0; i < 8; i++ {
		if s.Bytes()[i] != 0 {
			t.Fatal("view wrote outside its range")
		}
	}
	if got := Float64s(s.Bytes()[16:24])[0]; got != 1.5 {
		t.Fatalf("segment bytes [16,24) read %v, want the view's element 1, 1.5", got)
	}
}

// smallSink keeps the small objects of TestSegmentViewAligned on the heap.
var smallSink [][]byte

// TestSegmentViewAligned views the first word of segments of 9 to 15
// bytes, each allocated after small objects of every size. Go's allocator
// packs objects below 16 bytes by their size alone, so without the
// segment's rounded capacity such a segment can start 4 bytes into a word
// and the view panics.
func TestSegmentViewAligned(t *testing.T) {
	for n := 9; n < 16; n++ {
		for pad := 1; pad < 16; pad++ {
			for range 4 {
				smallSink = append(smallSink, make([]byte, pad), make([]byte, 4))
				if _, err := F64View(NewSegment(0, n), 0, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	smallSink = nil
}

func TestF64ViewOutOfRange(t *testing.T) {
	s := NewSegment(0, 64)
	if _, err := F64View(s, 0, 9); err == nil {
		t.Fatal("oversized view must fail")
	}
	if _, err := F64View(s, 60, 1); err == nil {
		t.Fatal("misaligned-end view must fail")
	}
	if _, err := F64View(s, 56, 2); err == nil {
		t.Fatal("view past the end must fail")
	}
	if _, err := F64View(s, 4, 1); err == nil {
		t.Fatal("misaligned offset must fail")
	}
	if v, err := F64View(s, 64, 0); err != nil || len(v) != 0 {
		t.Fatalf("empty view at the end = %d elements, %v; want 0, nil", len(v), err)
	}
}

func TestF64SpecialValues(t *testing.T) {
	v := Float64s(make([]byte, 4*F64Bytes))
	specials := []float64{math.Inf(1), math.Inf(-1), 0, math.MaxFloat64}
	copy(v, specials)
	for i, x := range specials {
		if got := v[i]; got != x {
			t.Fatalf("v[%d] = %v, want %v", i, got, x)
		}
	}
	v[0] = math.NaN()
	if !math.IsNaN(v[0]) {
		t.Fatal("NaN did not round-trip")
	}
}

// TestF64FillSubCopy checks that a view aliases its bytes: a sub-view's
// writes land in the enclosing view's elements and nowhere else, and
// copy moves values in and out.
func TestF64FillSubCopy(t *testing.T) {
	b := make([]byte, 10*F64Bytes)
	v := Float64s(b)
	for i := range v {
		v[i] = 3.25
	}
	sub := Float64s(b[2*F64Bytes : 5*F64Bytes])
	for i := range sub {
		sub[i] = -1
	}
	for i := range v {
		want := 3.25
		if i >= 2 && i < 5 {
			want = -1
		}
		if v[i] != want {
			t.Fatalf("sub-range fill: v[%d] = %v, want %v", i, v[i], want)
		}
	}
	copy(v[7:], []float64{9, 8, 7})
	got := append([]float64(nil), v[7:10]...)
	for i, want := range []float64{9, 8, 7} {
		if got[i] != want {
			t.Fatalf("copied out [%d] = %v, want %v", i, got[i], want)
		}
	}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestFloat64sMisalignedPanics(t *testing.T) {
	b := make([]byte, 3*F64Bytes)
	mustPanic(t, "Float64s over 7 bytes", func() { Float64s(b[:7]) })
	mustPanic(t, "Float64s over 9 bytes", func() { Float64s(b[:9]) })
	mustPanic(t, "Float64s at byte 1", func() { Float64s(b[1:17]) })
	mustPanic(t, "Float64s at byte 4", func() { Float64s(b[4:12]) })
	if v := Float64s(b[8:8]); len(v) != 0 {
		t.Errorf("Float64s of no bytes has %d elements", len(v))
	}
}

func TestI64RoundTrip(t *testing.T) {
	v := Int64s(NewSegment(0, 32).Bytes())
	vals := []int64{0, -1, math.MaxInt64, math.MinInt64}
	copy(v, vals)
	for i, x := range vals {
		if got := v[i]; got != x {
			t.Fatalf("v[%d] = %d, want %d", i, got, x)
		}
	}
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
}

func TestInt64sMisalignedPanics(t *testing.T) {
	b := make([]byte, 3*F64Bytes)
	mustPanic(t, "Int64s over 12 bytes", func() { Int64s(b[:12]) })
	mustPanic(t, "Int64s at byte 2", func() { Int64s(b[2:18]) })
}

// Property: any float64 round-trips bit for bit through a view at any
// valid index, and the bytes behind it hold its bits in the host's order.
func TestQuickF64RoundTrip(t *testing.T) {
	b := make([]byte, 64*F64Bytes)
	v := Float64s(b)
	f := func(bits uint64, idx uint8) bool {
		x := math.Float64frombits(bits)
		i := int(idx) % 64
		v[i] = x
		return math.Float64bits(v[i]) == bits &&
			math.Float64bits(Float64s(b[i*F64Bytes:][:F64Bytes])[0]) == bits &&
			uint64(Int64s(b)[i]) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Copy never touches bytes outside the destination range.
func TestQuickCopyIsolation(t *testing.T) {
	f := func(data []byte, off uint8) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		src := NewSegment(0, 64)
		copy(src.Bytes(), data)
		dst := NewSegment(1, 128)
		for i := range dst.Bytes() {
			dst.Bytes()[i] = 0xAA
		}
		o := int(off) % 64
		n := len(data)
		if err := Copy(dst, o, src, 0, n); err != nil {
			return false
		}
		for i, b := range dst.Bytes() {
			if i >= o && i < o+n {
				if b != src.Bytes()[i-o] {
					return false
				}
			} else if b != 0xAA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSegmentCopy4K(b *testing.B) {
	src := NewSegment(0, 4096)
	dst := NewSegment(1, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if err := Copy(dst, 0, src, 0, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
