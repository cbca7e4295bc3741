// Package streaming implements the paper's communication-intensive
// Streaming benchmark (§VI-C), inspired by the Pipelined Stencil of Belli
// and Hoefler: large data chunks flow through a pipeline of compute nodes;
// each node applies its own element-wise function to every chunk and
// forwards it to the next node. Blocks of a chunk are independent, so a
// node processes them concurrently; the block size sets the granularity of
// computation, communication, and (in the hybrid variants) tasks.
//
// Each process receives from the corresponding rank of the previous node
// and sends to the one of the next node, with receive and send buffers
// sized for its share of a chunk (timed segments of one block-wide slot
// unless Params.Verify; DESIGN.md §15). The communication follows the iterative
// producer-consumer pattern of §IV-B, so the TAGASPI variant uses ack
// notifications waited through the onready clause (§V-A) on writer tasks.
package streaming

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/tasking"
)

// Params configures one Streaming run.
type Params struct {
	Chunks     int // chunks pushed through the pipeline
	ChunkElems int // elements per chunk per node (split across its ranks)
	BlockSize  int // elements per block (granularity)
	// Verify runs the real arithmetic on full-share receive and send
	// buffers and returns checksums. Without it each buffer is one
	// block-wide slot that every block's transfer reuses; the cost is
	// modelled the same either way.
	Verify bool
}

// Validate checks that ranksPerNode ranks split a chunk into equal shares
// of whole blocks.
func (p Params) Validate(ranksPerNode int) error {
	switch {
	case ranksPerNode <= 0:
		return fmt.Errorf("streaming: ranks per node %d is not positive", ranksPerNode)
	case p.ChunkElems%ranksPerNode != 0:
		return fmt.Errorf("streaming: chunk of %d elements not divisible by %d ranks/node",
			p.ChunkElems, ranksPerNode)
	case p.BlockSize <= 0:
		return fmt.Errorf("streaming: block size %d is not positive", p.BlockSize)
	case p.ChunkElems/ranksPerNode%p.BlockSize != 0:
		return fmt.Errorf("streaming: share %d not divisible by block size %d",
			p.ChunkElems/ranksPerNode, p.BlockSize)
	}
	return nil
}

// Elements returns the figure-of-merit element count of a run.
func (p Params) Elements() float64 {
	return float64(p.Chunks) * float64(p.ChunkElems)
}

// gen is the source value of element i of chunk c (stage 0 output).
func gen(c, i int) float64 { return float64((c*31 + i) % 97) }

// stageFn applies node k's function: a distinct exact linear map.
func stageFn(k int, x float64) float64 { return x*float64(k+2) + float64(k) }

// ExpectedChecksum computes the analytic checksum the last node must
// accumulate: the sum over all chunks and elements after every stage's
// function has been applied.
func ExpectedChecksum(p Params, nodes int) float64 {
	var sum float64
	for c := 0; c < p.Chunks; c++ {
		for i := 0; i < p.ChunkElems; i++ {
			x := gen(c, i)
			for k := 1; k < nodes; k++ {
				x = stageFn(k, x)
			}
			sum += x
		}
	}
	return sum
}

// pipe holds one rank's pipeline state.
type pipe struct {
	env     *cluster.Env
	p       Params
	node    int // pipeline stage
	nodes   int
	rpn     int
	share   int // elements of each chunk this rank handles
	nb      int // blocks per chunk
	prev    int // source rank (-1 for stage 0)
	next    int // destination rank (-1 for the last stage)
	recvSeg *memory.Segment
	sendSeg *memory.Segment
	recv    []float64 // views of recvSeg and sendSeg; Verify only
	send    []float64
	sumMu   sync.Mutex // block tasks of one chunk run on concurrent workers
	sum     float64    // last stage: checksum accumulator
}

const (
	segRecv = 0
	segSend = 1
)

// Notification id spaces for the TAGASPI variant.
func dataNotif(j int) gaspisim.NotificationID { return gaspisim.NotificationID(j) }
func ackNotif(j, nb int) gaspisim.NotificationID {
	return gaspisim.NotificationID(nb + j)
}

func newPipe(env *cluster.Env, p Params) *pipe {
	topo := env.Fab.Topology()
	rpn := topo.RanksPerNode()
	pi := &pipe{
		env: env, p: p,
		node:  topo.NodeOf(env.Rank),
		nodes: topo.Nodes(),
		rpn:   rpn,
	}
	if err := p.Validate(rpn); err != nil {
		panic(err.Error())
	}
	pi.share = p.ChunkElems / rpn
	pi.nb = pi.share / p.BlockSize
	pi.prev, pi.next = -1, -1
	if pi.node > 0 {
		pi.prev = int(env.Rank) - rpn
	}
	if pi.node < pi.nodes-1 {
		pi.next = int(env.Rank) + rpn
	}
	size, width := pi.share*memory.F64Bytes, p.BlockSize*memory.F64Bytes
	if p.Verify {
		width = size
	}
	var err error
	if pi.recvSeg, err = env.GASPI.SegmentCreateTimed(segRecv, size, width); err != nil {
		panic(err)
	}
	if pi.sendSeg, err = env.GASPI.SegmentCreateTimed(segSend, size, width); err != nil {
		panic(err)
	}
	if !p.Verify {
		return pi
	}
	if pi.recv, err = memory.F64View(pi.recvSeg, 0, pi.share); err != nil {
		panic(err)
	}
	if pi.send, err = memory.F64View(pi.sendSeg, 0, pi.share); err != nil {
		panic(err)
	}
	return pi
}

// must fails fast on simulator API errors: inside task bodies there is no
// caller to propagate to, and in this deterministic benchmark any error is
// a programming bug (bad offset, unknown segment, invalid queue).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// elemBase is the global element index of this rank's block j start within
// a chunk: ranks of a node split the chunk contiguously.
func (pi *pipe) elemBase(j int) int {
	rankInNode := int(pi.env.Rank) % pi.rpn
	return rankInNode*pi.share + j*pi.p.BlockSize
}

// computeBlock models the per-block compute cost and, in verify mode,
// produces block j of the outgoing chunk c into send from recv (or from
// the generator on stage 0), accumulating the checksum on the last stage.
func (pi *pipe) computeBlock(c, j int) {
	b := pi.p.BlockSize
	if !pi.p.Verify {
		return
	}
	off := j * b
	switch {
	case pi.node == 0:
		send := pi.send[off : off+b]
		for i := range send {
			send[i] = gen(c, pi.elemBase(j)+i)
		}
	case pi.next < 0:
		var sum float64
		for _, x := range pi.recv[off : off+b] {
			sum += stageFn(pi.node, x)
		}
		pi.sumMu.Lock()
		pi.sum += sum
		pi.sumMu.Unlock()
	default:
		send, recv := pi.send[off:off+b], pi.recv[off:off+b]
		for i, x := range recv {
			send[i] = stageFn(pi.node, x)
		}
	}
}

// blockBytes returns the raw bytes of block j of a buffer.
func (pi *pipe) blockBytes(seg *memory.Segment, j int) []byte {
	b, err := seg.Slice(j*pi.p.BlockSize*memory.F64Bytes, pi.p.BlockSize*memory.F64Bytes)
	if err != nil {
		panic(err)
	}
	return b
}

// cost is the modelled compute time of one block.
func (pi *pipe) cost() float64 { return float64(pi.p.BlockSize) }

// Run executes variant v of the pipeline on one rank.
func Run(v cluster.Variant, env *cluster.Env, p Params) {
	switch v {
	case cluster.MPIOnly:
		RunMPIOnly(env, p)
	case cluster.TAMPI:
		RunTAMPI(env, p)
	default:
		RunTAGASPI(env, p)
	}
}

// RunMPIOnly executes the optimised MPI-only variant: non-blocking
// receives posted a chunk ahead, sends waited before buffer reuse.
func RunMPIOnly(env *cluster.Env, p Params) float64 {
	pi := newPipe(env, p)
	mpi := env.MPI
	recvReq := make([]*mpisim.Request, pi.nb)
	sendReq := make([]*mpisim.Request, pi.nb)
	for c := 0; c < p.Chunks; c++ {
		if pi.prev >= 0 {
			for j := 0; j < pi.nb; j++ {
				recvReq[j] = mpi.Irecv(pi.blockBytes(pi.recvSeg, j), mpisim.Rank(pi.prev), j)
			}
		}
		for j := 0; j < pi.nb; j++ {
			if pi.prev >= 0 {
				mpi.Wait(recvReq[j])
			}
			if pi.next >= 0 && c > 0 {
				// The send buffer block is about to be rewritten: its
				// previous-chunk send must have completed locally.
				mpi.Wait(sendReq[j])
			}
			env.Clk.Sleep(env.CostOf(pi.cost()))
			pi.computeBlock(c, j)
			if pi.next >= 0 {
				sendReq[j] = mpi.Isend(pi.blockBytes(pi.sendSeg, j), mpisim.Rank(pi.next), j)
			}
		}
	}
	if pi.next >= 0 {
		mpi.Waitall(sendReq)
	}
	return pi.sum
}

// RunTAMPI executes the hybrid variant with taskified computation and
// communication over TAMPI_Iwait.
func RunTAMPI(env *cluster.Env, p Params) func() float64 {
	pi := newPipe(env, p)
	mpi, rt, ta := env.MPI, env.RT, env.TAMPI
	type keys struct{ recv, send int }
	k := &keys{}
	var deps tasking.DepList // reused: Submit keeps none of a list
	for c := 0; c < p.Chunks; c++ {
		for j := 0; j < pi.nb; j++ {
			if pi.prev >= 0 {
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Irecv(pi.blockBytes(pi.recvSeg, j), mpisim.Rank(pi.prev), j)
					ta.Iwait(tk, req)
				}, deps.With(tasking.Out(&k.recv, j, j+1)),
					tasking.WithLabel("recv"))
			}
			deps = append(deps[:0], tasking.Out(&k.send, j, j+1))
			if pi.prev >= 0 {
				deps = append(deps, tasking.In(&k.recv, j, j+1))
			}
			rt.Submit(func(tk *tasking.Task) {
				tk.Then(env.CostOf(pi.cost()), func() { pi.computeBlock(c, j) })
			}, tasking.WithDeps(deps...), tasking.WithLabel("compute"), tasking.NonBlocking())
			if pi.next >= 0 {
				rt.Submit(func(tk *tasking.Task) {
					req := mpi.Isend(pi.blockBytes(pi.sendSeg, j), mpisim.Rank(pi.next), j)
					ta.Iwait(tk, req)
				}, deps.With(tasking.In(&k.send, j, j+1)),
					tasking.WithLabel("send"))
			}
		}
		rt.Throttle(4096)
	}
	return func() float64 { return pi.sum }
}

// RunTAGASPI executes the hybrid one-sided variant: writer tasks push
// blocks into the next rank's receive buffer with write+notify, gated on
// the consumer's ack notification through the onready clause; consumer
// tasks send the ack right after processing (§IV-B, §V-A).
func RunTAGASPI(env *cluster.Env, p Params) func() float64 {
	pi := newPipe(env, p)
	rt, tg := env.RT, env.TAGASPI
	Q := env.GASPI.Queues()
	type keys struct{ recv, send int }
	k := &keys{}
	var deps tasking.DepList // reused: Submit keeps none of a list

	// Seed the producer's acks: our receive blocks start out consumable.
	if pi.prev >= 0 {
		rt.Submit(func(tk *tasking.Task) {
			for j := 0; j < pi.nb; j++ {
				must(tg.Notify(tk, gaspisim.Rank(pi.prev), segSend, ackNotif(j, pi.nb),
					1, j%Q))
			}
		}, tasking.WithLabel("seed acks"))
	}

	for c := 0; c < p.Chunks; c++ {
		for j := 0; j < pi.nb; j++ {
			if pi.prev >= 0 {
				// wait data: the chunk block landing in our receive buffer.
				rt.Submit(func(tk *tasking.Task) {
					tg.NotifyIwait(tk, segRecv, dataNotif(j), nil)
				}, deps.With(tasking.Out(&k.recv, j, j+1)),
					tasking.WithLabel("wait data"), tasking.NonBlocking())
			}
			deps = append(deps[:0], tasking.Out(&k.send, j, j+1))
			if pi.prev >= 0 {
				deps = append(deps, tasking.In(&k.recv, j, j+1))
			}
			rt.Submit(func(tk *tasking.Task) {
				tk.Then(env.CostOf(pi.cost()), func() {
					pi.computeBlock(c, j)
					if pi.prev >= 0 {
						// Ack right after consuming: the previous rank may
						// now overwrite our receive block (§IV-B optimal
						// placement).
						must(tg.Notify(tk, gaspisim.Rank(pi.prev), segSend, ackNotif(j, pi.nb),
							1, j%Q))
					}
				})
			}, tasking.WithDeps(deps...), tasking.WithLabel("compute"), tasking.NonBlocking())
			if pi.next >= 0 {
				rt.Submit(func(tk *tasking.Task) {
					off := j * p.BlockSize * memory.F64Bytes
					must(tg.WriteNotify(tk, segSend, off, gaspisim.Rank(pi.next), segRecv, off,
						p.BlockSize*memory.F64Bytes, dataNotif(j), int64(c+1), j%Q))
				}, deps.With(tasking.In(&k.send, j, j+1)),
					tasking.WithOnReady(func(tk *tasking.Task) {
						// ack_iwait: wait until the consumer freed the slot.
						tg.NotifyIwait(tk, segSend, ackNotif(j, pi.nb), nil)
					}),
					tasking.WithLabel("write data"), tasking.NonBlocking())
			}
		}
		rt.Throttle(4096)
	}
	return func() float64 { return pi.sum }
}
