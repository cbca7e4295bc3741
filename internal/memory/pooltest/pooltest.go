// Package pooltest checks, from each owning package's tests, the release
// marks of the simulator's pooled records (DESIGN.md §6): memory's
// snapshots and the fabric, MPI, GASPI, TAGASPI and collectives records.
package pooltest

import (
	"testing"
	"unsafe"
)

// Panics runs every case and requires it to panic with exactly its key.
func Panics(t testing.TB, cases map[string]func()) {
	t.Helper()
	for want, fn := range cases {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("panic %v, want %q", got, want)
				}
			}()
			fn()
		}()
	}
}

// Size requires record type T to be want bytes, the size it had before it
// carried a release mark, so the mark costs no memory.
func Size[T any](t testing.TB, want uintptr) {
	t.Helper()
	var v T
	if got := unsafe.Sizeof(v); got != want {
		t.Errorf("%T is %d bytes, want %d", v, got, want)
	}
}
