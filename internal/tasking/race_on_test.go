//go:build race

package tasking

// The race detector's instrumentation allocates and pads heap objects, so
// the footprint gate skips itself when it is compiled in.
func init() { raceEnabled = true }
