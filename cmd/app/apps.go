package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/fabric"
)

// heatApp is the Gauss–Seidel heat-equation benchmark (§VI-A).
func heatApp(fs *flag.FlagSet) (map[string]*int, builder) {
	var p heat.Params
	fs.IntVar(&p.Rows, "rows", 1024, "matrix rows")
	fs.IntVar(&p.Cols, "cols", 2048, "matrix columns")
	fs.IntVar(&p.Timesteps, "steps", 10, "timesteps")
	fs.IntVar(&p.BlockRows, "block", 64, "block size (hybrid: square; mpi: columns)")
	fs.BoolVar(&p.Verify, "verify", false, "run real arithmetic and check against the serial reference")
	faults := fs.Float64("faults", 0, "inter-node drop probability for both message classes [0,1)")
	sizes := map[string]*int{"rows": &p.Rows, "cols": &p.Cols, "steps": &p.Timesteps, "block": &p.BlockRows}
	return sizes, func(v cluster.Variant, nodes int, prof fabric.Profile, g cluster.Geometry) (job, error) {
		if !(*faults >= 0 && *faults < 1) {
			return job{}, fmt.Errorf("-faults %v outside [0,1)", *faults)
		}
		p.BlockCols = p.BlockRows
		cfg := v.Config(nodes, prof, g)
		ranks := cfg.Nodes * cfg.RanksPerNode
		if err := p.Validate(ranks, v != cluster.MPIOnly); err != nil {
			return job{}, err
		}
		// At rate 0 this is the zero plan, under which no fault code runs.
		cfg.Faults = fabric.FaultPlan{MPIDrop: *faults, GASPIDrop: *faults}
		strips := make([][]float64, ranks) // Verify only
		report := func(w io.Writer, variant string, res cluster.Result) error {
			fmt.Fprintf(w, "variant=%s nodes=%d ranks=%d matrix=%dx%d steps=%d block=%d profile=%s\n",
				variant, cfg.Nodes, ranks, p.Rows, p.Cols, p.Timesteps, p.BlockRows, cfg.Profile.Name)
			fmt.Fprintf(w, "modelled time: %v   throughput: %.3f GUpdates/s\n",
				res.Elapsed, p.Updates()/res.Elapsed.Seconds()/1e9)
			fmt.Fprintf(w, "fabric: %d messages, %.1f MiB;  MPI time (all ranks): %v\n",
				res.Fabric.Messages, float64(res.Fabric.Bytes)/(1<<20), res.TotalMPITime())
			if *faults > 0 {
				fmt.Fprintf(w, "faults: %d injected;  gaspi queue errors: %.0f;  tagaspi retries: %.0f, gave up: %.0f\n",
					res.Fabric.Faults, sum(res, "gaspi_queue_errors"), sum(res, "tagaspi_retries"), sum(res, "tagaspi_gaveup"))
			}
			if !p.Verify {
				return nil
			}
			if err := verifyStrips(p, strips); err != nil {
				return err
			}
			fmt.Fprintf(w, "verify: %d strips bitwise identical to the serial sweep\n", ranks)
			return nil
		}
		main := func(env *cluster.Env) { strips[env.Rank] = heat.Run(v, env, p) }
		return job{cfg: cfg, main: main, report: report}, nil
	}
}

// verifyStrips compares every rank's strip bit for bit with its rows of
// heat.Serial, and names the first value that differs.
func verifyStrips(p heat.Params, strips [][]float64) error {
	ref := heat.Serial(p)
	rp := p.Rows / len(strips)
	for r, got := range strips {
		want := ref[(1+r*rp)*p.Cols:][:rp*p.Cols]
		if len(got) != len(want) {
			return fmt.Errorf("verify: rank %d returned %d values, want %d", r, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("verify: rank %d index %d is %v, the serial sweep has %v", r, i, got[i], want[i])
			}
		}
	}
	return nil
}

// sum adds up the named sample over every component snapshot of res.
func sum(res cluster.Result, name string) float64 {
	total := 0.0
	for _, s := range res.Snapshots {
		for _, smp := range s.Samples {
			if smp.Name == name {
				total += smp.Value
			}
		}
	}
	return total
}

// miniamrApp is the adaptive-mesh-refinement proxy (§VI-B). Its report
// adds the no-refinement (NR) throughput, which leaves out the slowest
// rank's refinement time.
func miniamrApp(fs *flag.FlagSet) (map[string]*int, builder) {
	p := miniamr.Params{Grid: [3]int{4, 4, 4}, Radius: 0.45}
	fs.IntVar(&p.Vars, "vars", 20, "computed variables")
	fs.IntVar(&p.Steps, "steps", 20, "timesteps")
	fs.IntVar(&p.RefineEvery, "refine", 5, "steps between mesh rebuilds")
	fs.IntVar(&p.Cells, "cells", 8, "cells per block edge")
	fs.IntVar(&p.MaxLevel, "maxlevel", 2, "maximum refinement level")
	fs.BoolVar(&p.Verify, "verify", false, "run real arithmetic and check against the serial reference")
	sizes := map[string]*int{"vars": &p.Vars, "steps": &p.Steps, "refine": &p.RefineEvery, "cells": &p.Cells}
	return sizes, func(v cluster.Variant, nodes int, prof fabric.Profile, g cluster.Geometry) (job, error) {
		if err := check(map[string]int{"maxlevel": p.MaxLevel}, 0, ">= 0"); err != nil {
			return job{}, err
		}
		if err := p.Validate(); err != nil {
			return job{}, err
		}
		cfg := miniamr.Config(v, nodes, prof, g)
		amr := miniamr.NewJob(p, cfg.Nodes*cfg.RanksPerNode)
		report := func(w io.Writer, variant string, res cluster.Result) error {
			leaves := 0
			for _, e := range amr.Epochs {
				leaves = max(leaves, len(e.Leaves))
			}
			total, nr, refine := amr.Throughput(res.Elapsed)
			fmt.Fprintf(w, "variant=%s nodes=%d ranks=%d vars=%d steps=%d epochs=%d peak-leaves=%d profile=%s\n",
				variant, cfg.Nodes, cfg.Nodes*cfg.RanksPerNode, p.Vars, p.Steps, len(amr.Epochs), leaves, cfg.Profile.Name)
			fmt.Fprintf(w, "modelled time: %v (refinement %v)   throughput: %.3f GUpdates/s (NR %.3f)\n",
				res.Elapsed, refine, total, nr)
			fmt.Fprintf(w, "fabric: %d messages;  MPI time (all ranks): %v\n",
				res.Fabric.Messages, res.TotalMPITime())
			if !p.Verify {
				return nil
			}
			final := amr.Epochs[len(amr.Epochs)-1]
			if err := verifyLeaves(p, final, amr.Blocks()); err != nil {
				return err
			}
			fmt.Fprintf(w, "verify: %d leaves bitwise identical to the serial reference\n", len(final.Leaves))
			return nil
		}
		return job{cfg: cfg, main: func(env *cluster.Env) { amr.Run(v, env) }, report: report}, nil
	}
}

// verifyLeaves compares every final leaf's interior, as returned by the
// rank that owns it in the final epoch, bit for bit with miniamr.Serial, and
// names the first value that differs.
func verifyLeaves(p miniamr.Params, final *miniamr.Epoch, blocks []map[miniamr.Leaf][]float64) error {
	ref := miniamr.Serial(p)
	for r, owned := range blocks {
		if want := len(final.ByRank[r]); len(owned) != want {
			return fmt.Errorf("verify: rank %d returned %d leaves, it owns %d", r, len(owned), want)
		}
	}
	for _, l := range final.Leaves {
		r := final.Owner[l]
		got, ok := blocks[r][l]
		want := ref[l]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("verify: rank %d leaf %+v returned %d values, want %d", r, l, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("verify: rank %d leaf %+v index %d is %v, the serial reference has %v", r, l, i, got[i], want[i])
			}
		}
	}
	return nil
}

// streamingApp is the Streaming pipeline benchmark (§VI-C): one pipeline
// stage per node.
func streamingApp(fs *flag.FlagSet) (map[string]*int, builder) {
	var p streaming.Params
	fs.IntVar(&p.Chunks, "chunks", 16, "chunks pushed through the pipeline")
	fs.IntVar(&p.ChunkElems, "chunk", 64<<10, "elements per chunk")
	fs.IntVar(&p.BlockSize, "block", 1024, "block size (elements)")
	sizes := map[string]*int{"chunks": &p.Chunks, "chunk": &p.ChunkElems, "block": &p.BlockSize}
	return sizes, func(v cluster.Variant, nodes int, prof fabric.Profile, g cluster.Geometry) (job, error) {
		cfg := v.Config(nodes, prof, g)
		if err := p.Validate(cfg.RanksPerNode); err != nil {
			return job{}, err
		}
		report := func(w io.Writer, variant string, res cluster.Result) error {
			fmt.Fprintf(w, "variant=%s nodes=%d chunks=%d chunk=%d block=%d profile=%s\n",
				variant, cfg.Nodes, p.Chunks, p.ChunkElems, p.BlockSize, cfg.Profile.Name)
			fmt.Fprintf(w, "modelled time: %v   throughput: %.3f GElements/s\n",
				res.Elapsed, p.Elements()/res.Elapsed.Seconds()/1e9)
			fmt.Fprintf(w, "fabric: %d messages;  MPI time (all ranks): %v\n",
				res.Fabric.Messages, res.TotalMPITime())
			return nil
		}
		return job{cfg: cfg, main: func(env *cluster.Env) { streaming.Run(v, env, p) }, report: report}, nil
	}
}
