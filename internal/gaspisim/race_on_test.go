//go:build race

package gaspisim

// The race detector's instrumentation allocates, so allocation gates skip
// themselves when it is compiled in.
func init() { raceEnabled = true }
