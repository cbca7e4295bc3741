package cluster

import (
	"fmt"
	"time"

	"repro/internal/fabric"
)

// Variant is one of the paper's three implementations of every application
// (§VI): two-sided MPI with one core per rank, or a hybrid rank with a
// tasking runtime and the TAMPI or the TAGASPI library.
type Variant int

// The variants, in the paper's series order.
const (
	MPIOnly Variant = iota
	TAMPI
	TAGASPI
)

// Variants lists every variant in series order.
var Variants = []Variant{MPIOnly, TAMPI, TAGASPI}

var variantNames = [...]string{"MPI-Only", "TAMPI", "TAGASPI"}

// String returns the variant's series name. Figure point ids start with
// it and point seeds derive from those ids, so the names are part of every
// committed result.
func (v Variant) String() string { return variantNames[v] }

// ParseVariant maps a command-line name ("mpi", "tampi" or "tagaspi") to
// its variant.
func ParseVariant(s string) (Variant, error) {
	for i, name := range [...]string{"mpi", "tampi", "tagaspi"} {
		if s == name {
			return Variant(i), nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want mpi | tampi | tagaspi)", s)
}

// Geometry is the per-node layout an application gives its variants.
type Geometry struct {
	MPIRanks    int           // ranks per node of MPI-Only, one core each
	HybridRanks int           // ranks per node of TAMPI and TAGASPI
	HybridCores int           // cores per hybrid rank
	Poll        time.Duration // polling period of the task-aware libraries
}

// Config builds the job description of variant v on nodes nodes of the
// given machine. The hybrid variants enable tasking and their one
// task-aware library; both polling periods are set, and a job reads only
// the one of a library it enables.
func (v Variant) Config(nodes int, prof fabric.Profile, g Geometry) Config {
	cfg := Config{Nodes: nodes, Profile: prof}
	if v == MPIOnly {
		cfg.RanksPerNode, cfg.CoresPerRank = g.MPIRanks, 1
		return cfg
	}
	cfg.RanksPerNode, cfg.CoresPerRank = g.HybridRanks, g.HybridCores
	cfg.WithTasking = true
	cfg.WithTAMPI, cfg.WithTAGASPI = v == TAMPI, v == TAGASPI
	cfg.TAMPIPoll, cfg.TAGASPIPoll = g.Poll, g.Poll
	return cfg
}
