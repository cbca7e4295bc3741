package heat

import (
	"repro/internal/cluster"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/tasking"
)

// rowBytes returns the raw bytes of the columns [bj*bc, (bj+1)*bc) of a
// strip row.
func (g *grid) rowBytes(row, bj int) []byte {
	bc := g.p.BlockCols
	b, err := g.seg.Slice(g.idx(row, bj*bc)*memory.F64Bytes, bc*memory.F64Bytes)
	if err != nil {
		panic(err)
	}
	return b
}

// throttleWindow bounds the live-task window of hybrid rank mains.
const throttleWindow = 4096

// must fails fast on simulator API errors: inside task bodies there is no
// caller to propagate to, and in this deterministic benchmark any error is
// a programming bug (bad offset, unknown segment, invalid queue).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Run executes variant v of the solver on one rank and returns the rank's
// interior strip, nil unless p.Verify.
func Run(v cluster.Variant, env *cluster.Env, p Params) []float64 { return runs[v](env, p).Strip() }

// runs are the variants' rank mains, indexed by variant.
var runs = [...]func(*cluster.Env, Params) *grid{RunMPIOnly, RunTAMPI, RunTAGASPI}

// RunMPIOnly executes the optimised MPI-only variant (§VI-A): non-blocking
// primitives with receives issued as early as possible and waits placed
// only where needed, overlapping computation and communication. The rank
// main is the only execution stream (one core per rank).
func RunMPIOnly(env *cluster.Env, p Params) *grid {
	g := newGrid(env, p, false)
	r, P := g.rank, g.ranks
	mpi := env.MPI
	BJ := g.bj
	up, down := r > 0, r < P-1
	T := p.Timesteps

	topReq := make([]*mpisim.Request, BJ)
	botReq := make([]*mpisim.Request, BJ)
	var sendReqs []*mpisim.Request

	// Early-issue the first iteration's top-halo receives.
	if up {
		for bj := 0; bj < BJ; bj++ {
			topReq[bj] = mpi.Irecv(g.rowBytes(0, bj), mpisim.Rank(r-1), 2*bj)
		}
	}
	for t := 0; t < T; t++ {
		// Bottom halo for iteration t carries the neighbour's first row of
		// t-1 (sent during its t-1 sweep); t=0 uses the initial condition.
		if down && t > 0 {
			for bj := 0; bj < BJ; bj++ {
				botReq[bj] = mpi.Irecv(g.rowBytes(g.rp+1, bj), mpisim.Rank(r+1), 2*bj+1)
			}
		}
		for bj := 0; bj < BJ; bj++ {
			if up {
				mpi.Wait(topReq[bj])
			}
			if down && t > 0 {
				mpi.Wait(botReq[bj])
			}
			bc := p.BlockCols
			env.Clk.Sleep(env.CostOf(g.blockCost(g.rp, bc)))
			g.sweep(1, g.rp, bj*bc, (bj+1)*bc-1)
			if up && t < T-1 {
				// First row of t feeds the upper neighbour's t+1 bottom halo.
				sendReqs = append(sendReqs, mpi.Isend(g.rowBytes(1, bj), mpisim.Rank(r-1), 2*bj+1))
			}
			if down {
				// Last row of t feeds the lower neighbour's t top halo.
				sendReqs = append(sendReqs, mpi.Isend(g.rowBytes(g.rp, bj), mpisim.Rank(r+1), 2*bj))
			}
		}
		// Re-issue next iteration's top receives as soon as possible.
		if up && t < T-1 {
			for bj := 0; bj < BJ; bj++ {
				topReq[bj] = mpi.Irecv(g.rowBytes(0, bj), mpisim.Rank(r-1), 2*bj)
			}
		}
		// The rows just sent are rewritten next sweep: wait local completion.
		mpi.Waitall(sendReqs)
		sendReqs = sendReqs[:0]
	}
	return g
}

// blockKeys hands out stable dependency bases for the hybrid variants.
type blockKeys struct {
	blocks, top, bot int
}

// RunTAMPI executes the hybrid MPI+OmpSs-2 variant: computation and
// communication fully taskified, with TAMPI_Iwait binding the non-blocking
// requests to the communication tasks (§VI-A).
func RunTAMPI(env *cluster.Env, p Params) *grid {
	g := newGrid(env, p, true)
	r, P := g.rank, g.ranks
	mpi, rt, ta := env.MPI, env.RT, env.TAMPI
	BI, BJ := g.bi, g.bj
	up, down := r > 0, r < P-1
	T := p.Timesteps
	keys := &blockKeys{}
	var deps tasking.DepList // reused: Submit keeps none of a list

	for t := 0; t < T; t++ {
		if up {
			for bj := 0; bj < BJ; bj++ {
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Irecv(g.rowBytes(0, bj), mpisim.Rank(r-1), 2*bj)
					ta.Iwait(tk, req)
				}, deps.With(tasking.Out(&keys.top, bj, bj+1)),
					tasking.WithLabel("recv top"))
			}
		}
		if down && t > 0 {
			for bj := 0; bj < BJ; bj++ {
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Irecv(g.rowBytes(g.rp+1, bj), mpisim.Rank(r+1), 2*bj+1)
					ta.Iwait(tk, req)
				}, deps.With(tasking.Out(&keys.bot, bj, bj+1)),
					tasking.WithLabel("recv bottom"))
			}
		}
		g.submitComputeTasks(keys, up, down)
		for bj := 0; bj < BJ; bj++ {
			if up && t < T-1 {
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Isend(g.rowBytes(1, bj), mpisim.Rank(r-1), 2*bj+1)
					ta.Iwait(tk, req)
				}, deps.With(tasking.In(&keys.blocks, bj, bj+1)),
					tasking.WithLabel("send top"))
			}
			if down {
				last := (BI-1)*BJ + bj
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Isend(g.rowBytes(g.rp, bj), mpisim.Rank(r+1), 2*bj)
					ta.Iwait(tk, req)
				}, deps.With(tasking.In(&keys.blocks, last, last+1)),
					tasking.WithLabel("send bottom"))
			}
		}
		rt.Throttle(throttleWindow)
	}
	rt.TaskWait()
	return g
}

// RunTAGASPI executes the hybrid GASPI+OmpSs-2 variant: the same
// taskification as TAMPI, but sender tasks write boundary rows directly
// into the neighbour's segment with tagaspi_write_notify and receiver
// tasks wait the notifications with tagaspi_notify_iwait, spreading
// operations over the GASPI queues (§VI-A).
func RunTAGASPI(env *cluster.Env, p Params) *grid {
	g := newGrid(env, p, true)
	r, P := g.rank, g.ranks
	rt, tg := env.RT, env.TAGASPI
	BI, BJ := g.bi, g.bj
	up, down := r > 0, r < P-1
	T := p.Timesteps
	Q := env.GASPI.Queues()
	keys := &blockKeys{}
	rowLen := p.BlockCols * memory.F64Bytes
	var deps tasking.DepList // reused: Submit keeps none of a list

	// Notification ids: top-halo arrivals use [0, BJ); bottom-halo
	// arrivals use [BJ, 2BJ).
	for t := 0; t < T; t++ {
		if up {
			for bj := 0; bj < BJ; bj++ {
				rt.Submit(func(tk *tasking.Task) {
					tg.NotifyIwait(tk, segGrid, gaspisim.NotificationID(bj), nil)
				}, deps.With(tasking.Out(&keys.top, bj, bj+1)),
					tasking.WithLabel("wait top"), tasking.NonBlocking())
			}
		}
		if down && t > 0 {
			for bj := 0; bj < BJ; bj++ {
				rt.Submit(func(tk *tasking.Task) {
					tg.NotifyIwait(tk, segGrid, gaspisim.NotificationID(BJ+bj), nil)
				}, deps.With(tasking.Out(&keys.bot, bj, bj+1)),
					tasking.WithLabel("wait bottom"), tasking.NonBlocking())
			}
		}
		g.submitComputeTasks(keys, up, down)
		for bj := 0; bj < BJ; bj++ {
			if up && t < T-1 {
				// My first row lands in the upper neighbour's bottom halo.
				rt.Submit(func(tk *tasking.Task) {
					must(tg.WriteNotify(tk, segGrid, g.idx(1, bj*p.BlockCols)*memory.F64Bytes,
						gaspisim.Rank(r-1), segGrid,
						g.idx(g.rp+1, bj*p.BlockCols)*memory.F64Bytes, rowLen,
						gaspisim.NotificationID(BJ+bj), int64(t+1), bj%Q))
				}, deps.With(tasking.In(&keys.blocks, bj, bj+1)),
					tasking.WithLabel("write top"), tasking.NonBlocking())
			}
			if down {
				last := (BI-1)*BJ + bj
				// My last row lands in the lower neighbour's top halo.
				rt.Submit(func(tk *tasking.Task) {
					must(tg.WriteNotify(tk, segGrid, g.idx(g.rp, bj*p.BlockCols)*memory.F64Bytes,
						gaspisim.Rank(r+1), segGrid,
						g.idx(0, bj*p.BlockCols)*memory.F64Bytes, rowLen,
						gaspisim.NotificationID(bj), int64(t+1), bj%Q))
				}, deps.With(tasking.In(&keys.blocks, last, last+1)),
					tasking.WithLabel("write bottom"), tasking.NonBlocking())
			}
		}
		rt.Throttle(throttleWindow)
	}
	rt.TaskWait()
	return g
}

// submitComputeTasks creates the block-update tasks of one timestep in
// wavefront dependency order (Gauss–Seidel: up and left must be new, down
// and right old). Each is a step task: the block's modelled cost, then (in
// verify mode) the sweep.
func (g *grid) submitComputeTasks(keys *blockKeys, up, down bool) {
	BI, BJ := g.bi, g.bj
	br, bc := g.p.BlockRows, g.p.BlockCols
	rt := g.env.RT
	// One buffer for every task's list: Submit registers the dependencies
	// and keeps none of the slice.
	deps := make([]tasking.Dep, 0, 5)
	for bi := 0; bi < BI; bi++ {
		for bj := 0; bj < BJ; bj++ {
			idx := bi*BJ + bj
			deps = append(deps[:0], tasking.InOut(&keys.blocks, idx, idx+1))
			if bi > 0 {
				deps = append(deps, tasking.In(&keys.blocks, idx-BJ, idx-BJ+1))
			} else if up {
				deps = append(deps, tasking.In(&keys.top, bj, bj+1))
			}
			if bi < BI-1 {
				deps = append(deps, tasking.In(&keys.blocks, idx+BJ, idx+BJ+1))
			} else if down {
				deps = append(deps, tasking.In(&keys.bot, bj, bj+1))
			}
			if bj > 0 {
				deps = append(deps, tasking.In(&keys.blocks, idx-1, idx))
			}
			if bj < BJ-1 {
				deps = append(deps, tasking.In(&keys.blocks, idx+1, idx+2))
			}
			rt.Submit(func(tk *tasking.Task) {
				tk.Then(g.env.CostOf(g.blockCost(br, bc)), func() {
					g.sweep(1+bi*br, (bi+1)*br, bj*bc, (bj+1)*bc-1)
				})
			}, tasking.WithDeps(deps...), tasking.WithLabel("compute"), tasking.NonBlocking())
		}
	}
}
