//go:build race

package cluster

// The race detector's instrumentation allocates, so allocation-count
// gates skip themselves when it is compiled in.
func init() { raceEnabled = true }
