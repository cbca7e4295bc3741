package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/mpisim"
	"repro/internal/tasking"
)

// hsSegIncast is the segment id of the TAGASPI incast buffers.
const hsSegIncast = 0

// hsConfig builds the job description of one incast variant on one
// topology shape: one rank per node, since the incast stresses the
// network, not the node.
func hsConfig(v cluster.Variant, shape fabric.Shape, nodes int) cluster.Config {
	cfg := v.Config(nodes, fabric.ProfileOmniPath(), rankPerNode)
	cfg.Shape = shape
	return cfg
}

// hsMains are the incast rank mains, indexed by variant.
var hsMains = [...]func(env *cluster.Env, msgs, size int){hsMPIOnlyMain, hsTAMPIMain, hsTAGASPIMain}

// hsMPIOnlyMain runs the two-sided incast: every rank but 0 pushes msgs
// messages of size bytes at rank 0 with non-blocking sends; rank 0 sinks
// them all with pre-posted receives.
func hsMPIOnlyMain(env *cluster.Env, msgs, size int) {
	r, P := int(env.Rank), env.Ranks()
	mpi := env.MPI
	if r == 0 {
		buf := make([]byte, (P-1)*msgs*size)
		reqs := make([]*mpisim.Request, 0, (P-1)*msgs)
		for k := 0; k < msgs; k++ {
			for s := 1; s < P; s++ {
				off := ((s-1)*msgs + k) * size
				reqs = append(reqs, mpi.Irecv(buf[off:off+size], mpisim.Rank(s), k))
			}
		}
		mpi.Waitall(reqs)
		return
	}
	buf := make([]byte, size)
	reqs := make([]*mpisim.Request, 0, msgs)
	for k := 0; k < msgs; k++ {
		reqs = append(reqs, mpi.Isend(buf, 0, k))
	}
	mpi.Waitall(reqs)
}

// hsTAMPIMain runs the taskified two-sided incast: every transfer is one
// task binding its request with TAMPI_Iwait, so communication overlaps
// across the core pool.
func hsTAMPIMain(env *cluster.Env, msgs, size int) {
	r, P := int(env.Rank), env.Ranks()
	mpi, rt, ta := env.MPI, env.RT, env.TAMPI
	if r == 0 {
		buf := make([]byte, (P-1)*msgs*size)
		for k := 0; k < msgs; k++ {
			for s := 1; s < P; s++ {
				rt.Submit(func(tk *tasking.Task) {
					off := ((s-1)*msgs + k) * size
					ta.Iwait(tk, mpi.Irecv(buf[off:off+size], mpisim.Rank(s), k))
				}, tasking.WithLabel("recv incast"))
			}
		}
	} else {
		buf := make([]byte, size)
		for k := 0; k < msgs; k++ {
			rt.Submit(func(tk *tasking.Task) {
				ta.Iwait(tk, mpi.Isend(buf, 0, k))
			}, tasking.WithLabel("send incast"))
		}
	}
	rt.TaskWait()
}

// hsTAGASPIMain runs the one-sided incast: senders write their payloads
// directly into rank 0's segment with tagaspi_write_notify, spread over
// the GASPI queues; rank 0 consumes the notifications with
// tagaspi_notify_iwait tasks and never touches a two-sided matching path.
func hsTAGASPIMain(env *cluster.Env, msgs, size int) {
	r, P := int(env.Rank), env.Ranks()
	rt, tg := env.RT, env.TAGASPI
	Q := env.GASPI.Queues()
	segSize := size
	if r == 0 {
		segSize = (P - 1) * msgs * size
	}
	if _, err := env.GASPI.SegmentCreate(hsSegIncast, segSize); err != nil {
		panic(err)
	}
	// Remote writes may only start once every segment exists.
	env.MPI.Barrier()
	if r == 0 {
		for k := 0; k < msgs; k++ {
			for s := 1; s < P; s++ {
				id := gaspisim.NotificationID((s-1)*msgs + k)
				rt.Submit(func(tk *tasking.Task) {
					tg.NotifyIwait(tk, hsSegIncast, id, nil)
				}, tasking.WithLabel("wait incast"))
			}
		}
	} else {
		for k := 0; k < msgs; k++ {
			rt.Submit(func(tk *tasking.Task) {
				off := ((r-1)*msgs + k) * size
				must(tg.WriteNotify(tk, hsSegIncast, 0, gaspisim.Rank(0), hsSegIncast,
					off, size, gaspisim.NotificationID((r-1)*msgs+k), 1, k%Q))
			}, tasking.WithLabel("write incast"))
		}
	}
	rt.TaskWait()
}

// hsPoint is one incast run, yielding the delivered throughput into the
// hot node in GB/s of modelled time.
func hsPoint(v cluster.Variant, shape fabric.Shape, nodes, msgs, size int) exp.Point {
	name := shape.String() + " " + v.String()
	return exp.Point{
		ID:   fmt.Sprintf("hotspot/%s/%s/n%d", shape, v, nodes),
		X:    float64(nodes),
		Cfg:  hsConfig(v, shape, nodes),
		Main: func(env *cluster.Env) { hsMains[v](env, msgs, size) },
		Values: func(job cluster.Result) map[string]float64 {
			payload := float64((nodes - 1) * msgs * size)
			return map[string]float64{name: payload / job.Elapsed.Seconds() / 1e9}
		},
	}
}

// FigHotspot measures all-to-one incast throughput under emergent
// topology congestion (DESIGN.md §13): every node pushes a fixed payload
// at node 0 over a 2D mesh and a fat-tree, where the links converging on
// the hot node serialize the traffic and backpressure queues it per hop —
// the regime the HPX+LCI communication-needs study identifies as the one
// where messaging layers actually separate. The flat model cannot show
// this figure at all: every pair has private capacity, so incast
// throughput would scale with the sender count.
func FigHotspot(o Opts) Figure {
	nodes := []int{4, 8, 16}
	msgs, size := 8, 32<<10
	if o.Preset == Quick {
		nodes = []int{4, 8}
		msgs = 4
	}
	shapes := []fabric.Shape{fabric.ShapeMesh2D, fabric.ShapeFatTree}
	var series []string
	for _, sh := range shapes {
		for _, v := range cluster.Variants {
			series = append(series, sh.String()+" "+v.String())
		}
	}
	sw := &exp.Sweep{
		Fig: Figure{
			ID: "hotspot", Title: "All-to-one incast throughput under topology congestion",
			XLabel: "nodes", X: toF(nodes),
			YLabel: "GB/s into the hot node",
			Notes: []string{
				"shaped topologies (mesh, fat-tree) route every message over shared per-link capacity; the links into node 0 are the hotspot",
				"critpath attributes the queueing as link_contend; per-link waits land in the fabric snapshot (link.*.waited)",
			},
		},
		Series: series,
	}
	for _, sh := range shapes {
		for _, v := range cluster.Variants {
			for _, n := range nodes {
				sw.Points = append(sw.Points, hsPoint(v, sh, n, msgs, size))
			}
		}
	}
	return runSweep(o, sw)
}
