package memory

import (
	"bytes"
	"math"
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

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s, err := r.Create(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(5, 64); err == nil {
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
	if v.Len() != 8 {
		t.Fatalf("Len = %d, want 8", v.Len())
	}
	for i := 0; i < 8; i++ {
		v.Set(i, float64(i)*1.5)
	}
	for i := 0; i < 8; i++ {
		if got := v.At(i); got != float64(i)*1.5 {
			t.Fatalf("At(%d) = %v, want %v", i, got, float64(i)*1.5)
		}
	}
	// The view starts at byte 8: byte 0..7 must be untouched.
	for i := 0; i < 8; i++ {
		if s.Bytes()[i] != 0 {
			t.Fatal("view wrote outside its range")
		}
	}
}

func TestF64ViewOutOfRange(t *testing.T) {
	s := NewSegment(0, 64)
	if _, err := F64View(s, 0, 9); err == nil {
		t.Fatal("oversized view must fail")
	}
	if _, err := F64View(s, 60, 1); err == nil {
		t.Fatal("misaligned-end view must fail")
	}
}

func TestF64SpecialValues(t *testing.T) {
	v := F64Of(make([]byte, 4*F64Bytes))
	specials := []float64{math.Inf(1), math.Inf(-1), 0, math.MaxFloat64}
	for i, x := range specials {
		v.Set(i, x)
	}
	for i, x := range specials {
		if got := v.At(i); got != x {
			t.Fatalf("At(%d) = %v, want %v", i, got, x)
		}
	}
	v.Set(0, math.NaN())
	if !math.IsNaN(v.At(0)) {
		t.Fatal("NaN did not round-trip")
	}
}

func TestF64FillSubCopy(t *testing.T) {
	v := F64Of(make([]byte, 10*F64Bytes))
	v.Fill(3.25)
	for i := 0; i < 10; i++ {
		if v.At(i) != 3.25 {
			t.Fatalf("Fill: At(%d) = %v", i, v.At(i))
		}
	}
	F64Of(v.b[2*F64Bytes : 5*F64Bytes]).Fill(-1)
	for i := 0; i < 10; i++ {
		want := 3.25
		if i >= 2 && i < 5 {
			want = -1
		}
		if v.At(i) != want {
			t.Fatalf("sub-range Fill: At(%d) = %v, want %v", i, v.At(i), want)
		}
	}
	v.CopyIn(7, []float64{9, 8, 7})
	got := v.CopyOut(7, 3)
	for i, want := range []float64{9, 8, 7} {
		if got[i] != want {
			t.Fatalf("CopyOut[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestF64OfMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	F64Of(make([]byte, 7))
}

func TestI64RoundTrip(t *testing.T) {
	v := I64Of(NewSegment(0, 32).Bytes())
	vals := []int64{0, -1, math.MaxInt64, math.MinInt64}
	for i, x := range vals {
		v.Set(i, x)
	}
	for i, x := range vals {
		if got := v.At(i); got != x {
			t.Fatalf("At(%d) = %d, want %d", i, got, x)
		}
	}
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
}

func TestI64OfMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	I64Of(make([]byte, 12))
}

// Property: any float64 round-trips through an F64 view at any valid index.
func TestQuickF64RoundTrip(t *testing.T) {
	v := F64Of(make([]byte, 64*F64Bytes))
	f := func(x float64, idx uint8) bool {
		i := int(idx) % 64
		v.Set(i, x)
		got := v.At(i)
		if math.IsNaN(x) {
			return math.IsNaN(got)
		}
		return got == x
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

func BenchmarkF64SetAt(b *testing.B) {
	v := F64Of(make([]byte, 1024*F64Bytes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % 1024
		v.Set(j, float64(i))
		_ = v.At(j)
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
