//go:build race

package memory

// The race detector's instrumentation allocates, so the heap gate skips
// itself when it is compiled in.
func init() { raceEnabled = true }
