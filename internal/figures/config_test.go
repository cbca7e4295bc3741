package figures

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/fabric"
)

// effective clears the polling period of a task-aware library the job does
// not enable: cluster.Run never reads it, so two configurations that differ
// only there run the same job.
func effective(cfg cluster.Config) cluster.Config {
	if !cfg.WithTAMPI {
		cfg.TAMPIPoll = 0
	}
	if !cfg.WithTAGASPI {
		cfg.TAGASPIPoll = 0
	}
	return cfg
}

// TestVariantConfigGolden pins the job description every figure helper
// builds for every variant to the literal the per-figure variant switches
// produced before cluster.Variant replaced them. It is a deterministic
// guard on the committed rows: a geometry or library change shows up here
// by name, without running a figure.
func TestVariantConfigGolden(t *testing.T) {
	omni, ib := fabric.ProfileOmniPath(), fabric.ProfileInfiniBand()
	us := time.Microsecond
	gs := gsParams(4, 64, 64, 6)
	amr := amrParams(20, 10)
	st := streaming.Params{Chunks: 8, ChunkElems: 16 << 10, BlockSize: 256}
	for _, tc := range []struct {
		name string
		got  cluster.Config
		want cluster.Config
	}{
		{"gauss/MPI-Only", gsPoint(cluster.MPIOnly, 4, gs, omni, 0).Cfg,
			cluster.Config{Nodes: 4, RanksPerNode: 8, CoresPerRank: 1, Profile: omni}},
		{"gauss/TAMPI", gsPoint(cluster.TAMPI, 4, gs, omni, 0).Cfg,
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},
		{"gauss/TAGASPI", gsPoint(cluster.TAGASPI, 4, gs, omni, 0).Cfg,
			cluster.Config{Nodes: 4, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAGASPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},

		{"amr/MPI-Only", amrPoint(cluster.MPIOnly, 2, amr, 0).Cfg,
			cluster.Config{Nodes: 2, RanksPerNode: 8, CoresPerRank: 1, Profile: omni}},
		{"amr/TAMPI", amrPoint(cluster.TAMPI, 2, amr, 0).Cfg,
			cluster.Config{Nodes: 2, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},
		{"amr/TAGASPI", amrPoint(cluster.TAGASPI, 2, amr, 0).Cfg,
			cluster.Config{Nodes: 2, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, WithTAGASPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},

		{"stream-13a/MPI-Only", stPoint("a", cluster.MPIOnly, 3, 2, st, omni, streamPoll, 0).Cfg,
			cluster.Config{Nodes: 3, RanksPerNode: 8, CoresPerRank: 1, Profile: omni}},
		{"stream-13a/TAMPI", stPoint("a", cluster.TAMPI, 3, 2, st, omni, streamPoll, 0).Cfg,
			cluster.Config{Nodes: 3, RanksPerNode: 2, CoresPerRank: 4, Profile: omni,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: us, TAGASPIPoll: us}},
		{"stream-13b/TAGASPI", stPoint("b", cluster.TAGASPI, 3, 1, st, ib, streamPoll, 0).Cfg,
			cluster.Config{Nodes: 3, RanksPerNode: 1, CoresPerRank: 8, Profile: ib,
				WithTasking: true, WithTAGASPI: true, TAMPIPoll: us, TAGASPIPoll: us}},
		{"poll/stream", stPoint("p", cluster.TAGASPI, 4, 1, st, ib, 150*us, 0).Cfg,
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 8, Profile: ib,
				WithTasking: true, WithTAGASPI: true, TAMPIPoll: 150 * us, TAGASPIPoll: 150 * us}},

		{"hotspot/MPI-Only", hsConfig(cluster.MPIOnly, fabric.ShapeMesh2D, 4),
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 1, Profile: omni, Shape: fabric.ShapeMesh2D}},
		{"hotspot/TAMPI", hsConfig(cluster.TAMPI, fabric.ShapeFatTree, 8),
			cluster.Config{Nodes: 8, RanksPerNode: 1, CoresPerRank: 2, Profile: omni, Shape: fabric.ShapeFatTree,
				WithTasking: true, WithTAMPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},
		{"hotspot/TAGASPI", hsConfig(cluster.TAGASPI, fabric.ShapeMesh2D, 4),
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 2, Profile: omni, Shape: fabric.ShapeMesh2D,
				WithTasking: true, WithTAGASPI: true, TAMPIPoll: 5 * us, TAGASPIPoll: 5 * us}},

		{"coll/MPI blocking", collVariants[0].job.Config(4, omni, rankPerNode),
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 1, Profile: omni}},
		{"coll/GASPI blocking", collVariants[1].job.Config(4, omni, rankPerNode),
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 1, Profile: omni}},
		{"coll/TAGASPI task-aware", collVariants[2].job.Config(4, omni, rankPerNode),
			cluster.Config{Nodes: 4, RanksPerNode: 1, CoresPerRank: 2, Profile: omni,
				WithTasking: true, WithTAGASPI: true, TAGASPIPoll: 5 * us}},

		{"onready", producerConsumerPoint(32, true).Cfg,
			cluster.Config{Nodes: 2, RanksPerNode: 1, CoresPerRank: 2, Profile: ib,
				WithTasking: true, WithTAGASPI: true, TAGASPIPoll: 5 * us}},
	} {
		if got, want := effective(tc.got), effective(tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, want)
		}
	}
}
