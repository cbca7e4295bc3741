// Command miniamr runs the adaptive-mesh-refinement proxy (§VI-B) on the
// simulated cluster, reporting total and no-refinement (NR) throughput.
//
// Example:
//
//	miniamr -variant tagaspi -nodes 8 -vars 20
//	miniamr -variant mpi -nodes 4 -steps 20
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/apps/miniamr"
	"repro/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obscli"
)

func main() {
	variant := flag.String("variant", "tagaspi", "mpi | tampi | tagaspi")
	nodes := flag.Int("nodes", 4, "compute nodes")
	rpn := flag.Int("rpn", 2, "ranks per node (hybrid variants)")
	cores := flag.Int("cores", 4, "cores per rank (hybrid variants)")
	mpiRPN := flag.Int("mpi-rpn", 8, "ranks per node (mpi variant)")
	vars := flag.Int("vars", 20, "computed variables")
	steps := flag.Int("steps", 20, "timesteps")
	refineEvery := flag.Int("refine", 5, "steps between mesh rebuilds")
	cells := flag.Int("cells", 8, "cells per block edge")
	maxLevel := flag.Int("maxlevel", 2, "maximum refinement level")
	profile := flag.String("profile", "omnipath", "omnipath | infiniband | ideal")
	poll := flag.Duration("poll", 10*time.Microsecond, "task-aware polling period")
	ofl := obscli.Register()
	flag.Parse()

	cliflag.RequirePositive(map[string]int{
		"nodes": *nodes, "rpn": *rpn, "cores": *cores, "mpi-rpn": *mpiRPN,
		"vars": *vars, "steps": *steps, "refine": *refineEvery, "cells": *cells,
	})
	cliflag.RequireNonNegative(map[string]int{"maxlevel": *maxLevel})

	var prof fabric.Profile
	switch *profile {
	case "omnipath":
		prof = fabric.ProfileOmniPath()
	case "infiniband":
		prof = fabric.ProfileInfiniBand()
	case "ideal":
		prof = fabric.ProfileIdeal()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}
	p := miniamr.Params{
		Grid: [3]int{4, 4, 4}, Cells: *cells, Vars: *vars,
		Steps: *steps, RefineEvery: *refineEvery, MaxLevel: *maxLevel,
		Radius: 0.45,
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := cluster.Config{Nodes: *nodes, Profile: prof, Seed: 2}
	switch *variant {
	case "mpi":
		cfg.RanksPerNode, cfg.CoresPerRank = *mpiRPN, 1
	case "tampi":
		cfg.RanksPerNode, cfg.CoresPerRank = *rpn, *cores
		cfg.WithTasking, cfg.WithTAMPI = true, true
		cfg.TAMPIPoll = *poll
	case "tagaspi":
		cfg.RanksPerNode, cfg.CoresPerRank = *rpn, *cores
		// The TAGASPI variant keeps TAMPI for the load-balancing stage
		// (library interoperability, §VI-B).
		cfg.WithTasking, cfg.WithTAMPI, cfg.WithTAGASPI = true, true, true
		cfg.TAMPIPoll, cfg.TAGASPIPoll = *poll, *poll
	default:
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", *variant)
		os.Exit(2)
	}

	ranks := cfg.Nodes * cfg.RanksPerNode
	col := ofl.Collector(ranks)
	if col != nil {
		cfg.Recorder = col
	}
	epochs := p.Epochs(ranks)
	leaves := 0
	for _, e := range epochs {
		if len(e.Leaves) > leaves {
			leaves = len(e.Leaves)
		}
	}
	var mu sync.Mutex
	var maxRefine time.Duration
	start := time.Now()
	res := cluster.Run(cfg, func(env *cluster.Env) {
		var out miniamr.Output
		switch *variant {
		case "mpi":
			out = miniamr.RunMPIOnly(env, p, epochs)
		case "tampi":
			out = miniamr.RunTAMPI(env, p, epochs)
		case "tagaspi":
			out = miniamr.RunTAGASPI(env, p, epochs)
		}
		mu.Lock()
		if out.RefineTime > maxRefine {
			maxRefine = out.RefineTime
		}
		mu.Unlock()
	})
	work := miniamr.Work(p, epochs)
	nr := res.Elapsed - maxRefine
	if nr <= 0 {
		nr = res.Elapsed
	}
	fmt.Printf("variant=%s nodes=%d ranks=%d vars=%d steps=%d epochs=%d peak-leaves=%d profile=%s\n",
		*variant, *nodes, ranks, *vars, *steps, len(epochs), leaves, prof.Name)
	fmt.Printf("modelled time: %v (refinement %v)   throughput: %.3f GUpdates/s (NR %.3f)   (host %v)\n",
		res.Elapsed, maxRefine, work/res.Elapsed.Seconds()/1e9, work/nr.Seconds()/1e9,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("fabric: %d messages;  MPI time (all ranks): %v\n",
		res.Fabric.Messages, res.TotalMPITime())
	if err := ofl.Finish(os.Stdout, col, res); err != nil {
		fmt.Fprintf(os.Stderr, "observability output: %v\n", err)
		os.Exit(1)
	}
}
