package obs

import (
	"fmt"
	"io"
)

// Sample is one named metric value inside a Snapshot. Durations are
// reported in seconds (Unit "s"), sizes in bytes (Unit "B"); counts leave
// Unit empty.
type Sample struct {
	Name  string
	Value float64
	Unit  string
}

// Snapshot is the common shape of a component's statistics: a component
// name, the owning rank (-1 for job-global components like the fabric) and
// a flat, ordered sample list. It unifies the previously divergent Stats
// structs of the fabric, the tasking runtime and the GASPI/MPI processes.
type Snapshot struct {
	Component string
	Rank      int
	Samples   []Sample
}

// WriteSnapshots renders snapshots as aligned text, one sample per line.
func WriteSnapshots(w io.Writer, snaps []Snapshot) {
	for _, s := range snaps {
		if s.Rank >= 0 {
			fmt.Fprintf(w, "-- %s (rank %d)\n", s.Component, s.Rank)
		} else {
			fmt.Fprintf(w, "-- %s\n", s.Component)
		}
		for _, smp := range s.Samples {
			if smp.Unit != "" {
				fmt.Fprintf(w, "   %-28s %g %s\n", smp.Name, smp.Value, smp.Unit)
			} else {
				fmt.Fprintf(w, "   %-28s %g\n", smp.Name, smp.Value)
			}
		}
	}
}
