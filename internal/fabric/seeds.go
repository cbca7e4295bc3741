package fabric

// Seed derivation map (audited; DESIGN.md §8). Every deterministic random
// stream in a simulation derives from the single cluster Config.Seed, and
// each consumer salts it into its own region of seed space so no two
// streams ever share a generator state:
//
//   - MPI-model rank jitter:    seed + rank*7919          (MPIJitterSeed)
//   - GASPI world base:         seed + 0x9e3779b9         (GASPIWorldSeed)
//   - GASPI-model rank jitter:  worldSeed + rank*104729   (GASPIJitterSeed)
//   - fault plane:              seed ^ SeedOf("fault-plane") (FaultPlaneSeed)
//
// The jitter streams feed Jitterers, whose lazily seeded source (lfg.go)
// draws math/rand's lagged-Fibonacci sequence for the seed; the fault plane
// feeds counter-mode splitmix64 streams further salted per ordering domain
// (fault.go), so even a base-seed collision with a jitter stream would
// produce unrelated sequences. The two jitter strides are distinct primes
// and the GASPI chain is offset by the golden-ratio constant, so the MPI
// and GASPI rank progressions stay disjoint for every rank count the
// harness can realistically build; TestSeedDerivationsDistinct pins
// pairwise distinctness across all four derivations to 16384 ranks.
//
// These helpers are the only place the formulas live: cluster wires them
// into the worlds, and changing any constant is a reproducibility break
// (committed BENCH_*.json baselines would shift).

// MPIJitterSeed returns the software-jitter seed of MPI-model rank r under
// the given world seed.
func MPIJitterSeed(worldSeed int64, r int) int64 { return worldSeed + int64(r)*7919 }

// GASPIWorldSeed returns the GASPI world's base seed for a cluster seed:
// offset by the 32-bit golden-ratio constant so the GASPI jitter chain
// occupies a different region of seed space than the MPI chain.
func GASPIWorldSeed(clusterSeed int64) int64 { return clusterSeed + 0x9e3779b9 }

// GASPIJitterSeed returns the software-jitter seed of GASPI-model rank r
// under the given world seed (as returned by GASPIWorldSeed).
func GASPIJitterSeed(worldSeed int64, r int) int64 { return worldSeed + int64(r)*104729 }

// FaultPlaneSeed returns the fault plane's base seed for a cluster seed.
// XOR with a fixed FNV hash (rather than an additive offset) keeps it off
// the arithmetic progressions the jitter chains walk.
func FaultPlaneSeed(clusterSeed int64) int64 { return clusterSeed ^ SeedOf("fault-plane") }
