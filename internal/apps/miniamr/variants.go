package miniamr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/tasking"
)

// Segment ids of the single receive and send buffers (§VI-B: "they have
// only one memory buffer for sending and another for receiving"), which
// hold every remote message of an epoch at its own offset. In timed mode
// each is a timed segment of one slot as wide as the rank's largest
// message (DESIGN.md §15).
const (
	segRecv = 0
	segSend = 1
)

// must fails fast on simulator API errors: inside task bodies there is no
// caller to propagate to, and in this deterministic benchmark any error is
// a programming bug (bad offset, unknown segment, invalid queue).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustSlice returns the bytes [off, off+n) of seg, failing fast on bounds
// errors.
func mustSlice(seg *memory.Segment, off, n int) []byte {
	b, err := seg.Slice(off, n)
	must(err)
	return b
}

// msgBytes is the packed size of message m: every variable's elements.
func (p Params) msgBytes(m Msg) int { return m.Elems * p.Vars * memory.F64Bytes }

// migration tags live above the halo-exchange tag space.
const (
	tagMigrate = 1 << 20
	tagAgree   = 1 << 21
)

// Output is one rank's result.
type Output struct {
	RefineTime time.Duration      // time in refinement/migration/agreement
	Blocks     map[Leaf][]float64 // final owned interiors (verify mode)
}

// Work returns the figure-of-merit update count of a run: cells × variables
// summed over every step's mesh.
func Work(p Params, epochs []*Epoch) float64 {
	cells := float64(p.Cells * p.Cells * p.Cells * p.Vars)
	total := 0.0
	for s := 0; s < p.Steps; s++ {
		e := epochs[s/p.RefineEvery]
		total += float64(len(e.Leaves)) * cells
	}
	return total
}

// app is one rank's run state.
type app struct {
	env    *cluster.Env
	p      Params
	me     int
	ranks  int
	epochs []*Epoch
	blocks map[Leaf]*block
	refine time.Duration

	recvSeg, sendSeg *memory.Segment
	// Timed mode's migration slots, one interior wide, allocated on first
	// use; Verify gives every transfer its own buffer instead.
	migSend, migRecv []byte
	// deps is the hybrid variants' dependency list, reused by every
	// Submit of the rank main: Submit keeps none of a list.
	deps tasking.DepList
}

// plan is the per-epoch communication plan of one rank.
type plan struct {
	e         *Epoch
	owned     []Leaf
	inLocal   []Msg
	inRemote  []Msg
	inOff     []int // byte offsets in the receive buffer
	outRemote []Msg
	outOff    []int // byte offsets in the send buffer
	noNbr     map[Leaf][]int
	peersIn   map[int][]int // sender rank -> indices into inRemote
	peersOut  map[int][]int // receiver rank -> indices into outRemote

	// TAGASPI agreement results (§VI-B): for each outRemote message, the
	// receiver-assigned buffer offset and notification id; for each
	// inRemote message, the sender-assigned ack notification id.
	remOff, remNotif []int
	ackID            []int
}

func newApp(env *cluster.Env, p Params, epochs []*Epoch) *app {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &app{env: env, p: p, me: int(env.Rank), ranks: env.Ranks(), epochs: epochs}
	// Logical sizes are the largest epoch's buffers; widths are the largest
	// single remote message, or the whole buffer under Verify.
	in, out := memory.F64Bytes, memory.F64Bytes // non-zero minimum
	inW, outW := in, out
	for _, e := range epochs {
		in, out = max(in, e.InBytes[a.me]), max(out, e.OutBytes[a.me])
		for _, m := range e.Inbound[a.me] {
			if e.Owner[m.Src] != a.me {
				inW = max(inW, p.msgBytes(m))
			}
		}
		for _, m := range e.Outbound[a.me] {
			if e.Owner[m.Dst] != a.me {
				outW = max(outW, p.msgBytes(m))
			}
		}
	}
	if p.Verify {
		inW, outW = in, out
	}
	var err error
	if a.recvSeg, err = env.GASPI.SegmentCreateTimed(segRecv, in, inW); err != nil {
		panic(err)
	}
	if a.sendSeg, err = env.GASPI.SegmentCreateTimed(segSend, out, outW); err != nil {
		panic(err)
	}
	return a
}

// recvBytes returns the receive bytes of inbound remote message k.
func (a *app) recvBytes(pl *plan, k int) []byte {
	return mustSlice(a.recvSeg, pl.inOff[k], a.p.msgBytes(pl.inRemote[k]))
}

// sendBytes returns the send bytes of outbound remote message k.
func (a *app) sendBytes(pl *plan, k int) []byte {
	return mustSlice(a.sendSeg, pl.outOff[k], a.p.msgBytes(pl.outRemote[k]))
}

func (a *app) plan(e *Epoch) *plan {
	pl := &plan{e: e, noNbr: a.p.boundaryFaces(e),
		peersIn: make(map[int][]int), peersOut: make(map[int][]int)}
	for _, i := range e.ByRank[a.me] {
		pl.owned = append(pl.owned, e.Leaves[i])
	}
	off := 0
	for _, m := range e.Inbound[a.me] {
		src := e.Owner[m.Src]
		if src == a.me {
			pl.inLocal = append(pl.inLocal, m)
			continue
		}
		k := len(pl.inRemote)
		pl.inRemote = append(pl.inRemote, m)
		pl.inOff = append(pl.inOff, off)
		pl.peersIn[src] = append(pl.peersIn[src], k)
		off += a.p.msgBytes(m)
	}
	off = 0
	for _, m := range e.Outbound[a.me] {
		dst := e.Owner[m.Dst]
		if dst == a.me {
			continue // handled through inLocal
		}
		k := len(pl.outRemote)
		pl.outRemote = append(pl.outRemote, m)
		pl.outOff = append(pl.outOff, off)
		pl.peersOut[dst] = append(pl.peersOut[dst], k)
		off += a.p.msgBytes(m)
	}
	pl.remOff = make([]int, len(pl.outRemote))
	pl.remNotif = make([]int, len(pl.outRemote))
	pl.ackID = make([]int, len(pl.inRemote))
	return pl
}

// initialBlocks creates and initialises the epoch-0 blocks of this rank.
func (a *app) initialBlocks(pl *plan) {
	a.blocks = make(map[Leaf]*block, len(pl.owned))
	for _, l := range pl.owned {
		b := &block{leaf: l}
		if a.p.Verify {
			b = a.p.newBlock(l)
			a.p.initBlock(b)
		}
		a.blocks[l] = b
	}
}

// The cell kernels below are the real arithmetic and run only in Verify
// mode. Otherwise a block holds its leaf alone: nothing reads the cells, and
// every modelled cost is the caller's Sleep or Compute either way.

// pack writes message m's values from src into the send bytes buf, in
// place.
func (a *app) pack(src *block, m Msg, buf []byte) {
	if a.p.Verify {
		a.p.packMsg(src, m, memory.Float64s(buf))
	}
}

// unpack places message m's values from the receive bytes buf into dst's
// halo, reading them in place.
func (a *app) unpack(dst *block, m Msg, buf []byte) {
	if a.p.Verify {
		a.p.unpackMsg(dst, m, memory.Float64s(buf))
	}
}

// copyHalo moves the intra-rank message m from src straight into dst's halo.
func (a *app) copyHalo(src, dst *block, m Msg) {
	if a.p.Verify {
		vals := make([]float64, m.Elems*a.p.Vars)
		a.p.packMsg(src, m, vals)
		a.p.unpackMsg(dst, m, vals)
	}
}

// advance fills b's neighbour-less faces and runs one stencil step.
func (a *app) advance(b *block, faces []int) {
	if a.p.Verify {
		for _, f := range faces {
			a.p.fillBoundary(b, f)
		}
		a.p.step(b)
	}
}

// seqRefineCost is the modelled partly-sequential refinement work per
// epoch (the paper's "refinement has several sequential sections").
func (a *app) seqRefineCost(e *Epoch) time.Duration {
	return a.env.CostOf(4 * float64(len(e.Leaves)) * float64(a.p.Cells*a.p.Cells*a.p.Cells))
}

// migrate redistributes block data from the previous epoch's owners to the
// new ones and remaps levels. Hybrid variants move data with TAMPI tasks
// (the §VI-B interoperability: the TAGASPI variant uses TAMPI here);
// MPI-only uses plain non-blocking MPI.
func (a *app) migrate(oldE, newE *Epoch, pl *plan) {
	p := a.p
	trs := transition(oldE, newE)
	elems := p.InteriorElems()
	nbytes := elems * memory.F64Bytes

	// Per-(from,to) tag sequence, identical on both sides.
	type pair struct{ f, t int }
	seq := make(map[pair]int)
	tagOf := make(map[Transfer]int, len(trs))
	for _, tr := range trs {
		k := pair{tr.From, tr.To}
		tagOf[tr] = tagMigrate + seq[k]
		seq[k]++
	}

	inbound := make(map[Leaf][]byte)
	var reqs []*mpisim.Request
	mpi := a.env.MPI
	for _, tr := range trs {
		switch {
		case tr.To == a.me:
			buf := a.migBuf(&a.migRecv, nbytes)
			inbound[tr.Src] = buf
			if a.env.RT != nil {
				a.env.RT.Submit(func(tk *tasking.Task) {
					a.env.TAMPI.Iwait(tk, mpi.Irecv(buf, mpisim.Rank(tr.From), tagOf[tr]))
				}, tasking.WithLabel("lb-recv"))
			} else {
				reqs = append(reqs, mpi.Irecv(buf, mpisim.Rank(tr.From), tagOf[tr]))
			}
		case tr.From == a.me:
			buf := a.migBuf(&a.migSend, nbytes)
			if p.Verify {
				p.interior(a.blocks[tr.Src], memory.Float64s(buf))
			}
			if a.env.RT != nil {
				a.env.RT.Submit(func(tk *tasking.Task) {
					a.env.TAMPI.Iwait(tk, mpi.Isend(buf, mpisim.Rank(tr.To), tagOf[tr]))
				}, tasking.WithLabel("lb-send"))
			} else {
				reqs = append(reqs, mpi.Isend(buf, mpisim.Rank(tr.To), tagOf[tr]))
			}
		}
	}
	if a.env.RT != nil {
		a.env.RT.TaskWait()
	} else {
		mpi.Waitall(reqs)
	}

	// Remap into the new mesh from local and received sources.
	oldSet := make(map[Leaf]bool, len(oldE.Leaves))
	for _, l := range oldE.Leaves {
		oldSet[l] = true
	}
	next := make(map[Leaf]*block, len(pl.owned))
	for _, nl := range pl.owned {
		srcs := sourcesOf(nl, oldSet)
		for _, ol := range srcs {
			if _, ok := a.blocks[ol]; !ok && inbound[ol] == nil {
				panic(fmt.Sprintf("miniamr: rank %d missing source %v for %v", a.me, ol, nl))
			}
		}
		next[nl] = &block{leaf: nl}
		if p.Verify {
			next[nl] = a.remap(nl, srcs, inbound)
		}
	}
	a.blocks = next
	// Modelled remap cost: proportional to the rebuilt local cells.
	a.env.Clk.Sleep(a.env.CostOf(float64(len(pl.owned)) * float64(elems)))
}

// migBuf returns the buffer of one migration transfer of n bytes: a fresh
// one under Verify, whose interiors remap reads, and otherwise the rank's
// one slot, which every transfer of its run reuses.
func (a *app) migBuf(slot *[]byte, n int) []byte {
	if a.p.Verify {
		return make([]byte, n)
	}
	if *slot == nil {
		*slot = make([]byte, n)
	}
	return *slot
}

// remap assembles the cells of new leaf nl from its old sources srcs: this
// rank's blocks, or the interiors received from their old owners.
func (a *app) remap(nl Leaf, srcs []Leaf, inbound map[Leaf][]byte) *block {
	p, elems := a.p, a.p.InteriorElems()
	acc, cnt := make([]float64, elems), make([]int32, elems)
	data := make([]float64, elems)
	for _, ol := range srcs {
		if b, ok := a.blocks[ol]; ok {
			p.interior(b, data)
			p.remapInto(nl, ol, data, acc, cnt)
		} else {
			p.remapInto(nl, ol, memory.Float64s(inbound[ol]), acc, cnt)
		}
	}
	b := p.newBlock(nl)
	finishRemap(acc, cnt, acc) // in place: acc is zero wherever cnt is
	p.setInterior(b, acc)
	return b
}

// agree runs the sequential agreement phase of the TAGASPI variant
// (§VI-B): each pair of neighbouring ranks exchanges, per RMA message, the
// receiver-assigned buffer offset and notification id, and the
// sender-assigned ack notification id.
func (a *app) agree(pl *plan) {
	peerSet := make(map[int]bool)
	for r := range pl.peersIn {
		peerSet[r] = true
	}
	for r := range pl.peersOut {
		peerSet[r] = true
	}
	peers := make([]int, 0, len(peerSet))
	for r := range peerSet {
		peers = append(peers, r)
	}
	sort.Ints(peers)
	mpi := a.env.MPI
	// Post every exchange non-blocking, then wait: the agreement phase is
	// sequential (not taskified) but its round-trips overlap.
	recvBufs := make(map[int][]byte, len(peers))
	var reqs []*mpisim.Request
	for _, pr := range peers {
		// Payload to pr: (offset, data notif id) for every message pr→me,
		// then my ack id for every message me→pr.
		ins, outs := pl.peersIn[pr], pl.peersOut[pr]
		sendBuf := make([]byte, (2*len(ins)+len(outs))*8)
		sv := memory.Int64s(sendBuf)
		for i, k := range ins {
			sv[2*i], sv[2*i+1] = int64(pl.inOff[k]), int64(k)
		}
		for i, k := range outs {
			sv[2*len(ins)+i] = int64(k)
		}
		recvBuf := make([]byte, (2*len(outs)+len(ins))*8)
		recvBufs[pr] = recvBuf
		reqs = append(reqs,
			mpi.Isend(sendBuf, mpisim.Rank(pr), tagAgree),
			mpi.Irecv(recvBuf, mpisim.Rank(pr), tagAgree))
	}
	mpi.Waitall(reqs)
	for _, pr := range peers {
		a.adopt(pl, pr, memory.Int64s(recvBufs[pr]))
	}
}

// adopt records the agreement values peer pr sent. The receive offsets pr
// assigned are the only offsets that arrive from another rank, so each is
// checked here against pr's receive buffer of this epoch.
func (a *app) adopt(pl *plan, pr int, rv []int64) {
	i := 0
	for _, k := range pl.peersOut[pr] {
		off, n, size := int(rv[i]), a.p.msgBytes(pl.outRemote[k]), pl.e.InBytes[pr]
		if off < 0 || off+n > size {
			panic(fmt.Sprintf("miniamr: rank %d: rank %d assigned bytes [%d,%d) outside its %d-byte receive buffer",
				a.me, pr, off, off+n, size))
		}
		pl.remOff[k], pl.remNotif[k] = off, int(rv[i+1])
		i += 2
	}
	for _, k := range pl.peersIn[pr] {
		pl.ackID[k] = int(rv[i])
		i++
	}
}

// stepsOf returns the steps [s0, s1) of epoch ei.
func (a *app) stepsOf(ei int) (s0, s1 int) {
	s0 = ei * a.p.RefineEvery
	s1 = s0 + a.p.RefineEvery
	if s1 > a.p.Steps {
		s1 = a.p.Steps
	}
	return
}

// output gathers the final state.
func (a *app) output() Output {
	out := Output{RefineTime: a.refine}
	if a.p.Verify {
		out.Blocks = make(map[Leaf][]float64, len(a.blocks))
		for l, b := range a.blocks {
			data := make([]float64, a.p.InteriorElems())
			a.p.interior(b, data)
			out.Blocks[l] = data
		}
	}
	return out
}

// Config builds the job description of variant v: the variant's cluster
// configuration, except that the TAGASPI variant keeps TAMPI for the
// load-balancing stage (library interoperability, §VI-B).
func Config(v cluster.Variant, nodes int, prof fabric.Profile, g cluster.Geometry) cluster.Config {
	cfg := v.Config(nodes, prof, g)
	if v == cluster.TAGASPI {
		cfg.WithTAMPI = true
	}
	return cfg
}

// Job is one miniAMR run: the parameters and mesh epochs every rank
// replays, the slowest rank's refinement time, which the no-refinement
// (NR) throughput leaves out, and under Verify each rank's final blocks.
type Job struct {
	p      Params
	Epochs []*Epoch

	mu        sync.Mutex
	maxRefine time.Duration
	blocks    []map[Leaf][]float64 // by rank; Verify only
}

// NewJob prepares a run of p on ranks ranks.
func NewJob(p Params, ranks int) *Job {
	j := &Job{p: p, Epochs: p.Epochs(ranks)}
	if p.Verify {
		j.blocks = make([]map[Leaf][]float64, ranks)
	}
	return j
}

// Run executes variant v on one rank of a cluster built by Config.
func (j *Job) Run(v cluster.Variant, env *cluster.Env) {
	out := runs[v](env, j.p, j.Epochs)
	j.mu.Lock()
	j.maxRefine = max(j.maxRefine, out.RefineTime)
	if j.blocks != nil {
		j.blocks[env.Rank] = out.Blocks
	}
	j.mu.Unlock()
}

// Blocks returns the finished job's final owned interiors, indexed by
// rank, or nil unless the job runs with Verify.
func (j *Job) Blocks() []map[Leaf][]float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.blocks
}

// runs are the variants' rank mains, indexed by variant.
var runs = [...]func(*cluster.Env, Params, []*Epoch) Output{RunMPIOnly, RunTAMPI, RunTAGASPI}

// Throughput returns the finished job's total and NR throughput in
// GUpdates/s over elapsed modelled time, and the slowest rank's
// refinement time.
func (j *Job) Throughput(elapsed time.Duration) (total, nr float64, refine time.Duration) {
	j.mu.Lock()
	refine = j.maxRefine
	j.mu.Unlock()
	work := Work(j.p, j.Epochs)
	nrTime := elapsed - refine
	if nrTime <= 0 {
		nrTime = elapsed
	}
	return work / elapsed.Seconds() / 1e9, work / nrTime.Seconds() / 1e9, refine
}

// RunMPIOnly executes the MPI-only variant: one core per rank, sequential
// phases, non-blocking point-to-point halo exchange.
func RunMPIOnly(env *cluster.Env, p Params, epochs []*Epoch) Output {
	a := newApp(env, p, epochs)
	mpi := env.MPI
	for ei, e := range epochs {
		pl := a.plan(e)
		t0 := env.Clk.Now()
		if ei == 0 {
			a.initialBlocks(pl)
		} else {
			a.migrate(epochs[ei-1], e, pl)
			env.Clk.Sleep(a.seqRefineCost(e))
		}
		a.refine += env.Clk.Now() - t0
		s0, s1 := a.stepsOf(ei)
		recvReqs := make([]*mpisim.Request, len(pl.inRemote))
		for s := s0; s < s1; s++ {
			for k, m := range pl.inRemote {
				recvReqs[k] = mpi.Irecv(a.recvBytes(pl, k), mpisim.Rank(e.Owner[m.Src]), m.Tag)
			}
			var sendReqs []*mpisim.Request
			for k, m := range pl.outRemote {
				buf := a.sendBytes(pl, k)
				a.pack(a.blocks[m.Src], m, buf)
				env.Clk.Sleep(env.CostOf(float64(m.Elems*p.Vars) / 2))
				sendReqs = append(sendReqs, mpi.Isend(buf, mpisim.Rank(e.Owner[m.Dst]), m.Tag))
			}
			for _, m := range pl.inLocal {
				a.copyHalo(a.blocks[m.Src], a.blocks[m.Dst], m)
				env.Clk.Sleep(env.CostOf(float64(m.Elems * p.Vars)))
			}
			for k, m := range pl.inRemote {
				mpi.Wait(recvReqs[k])
				a.unpack(a.blocks[m.Dst], m, a.recvBytes(pl, k))
				env.Clk.Sleep(env.CostOf(float64(m.Elems*p.Vars) / 2))
			}
			for _, l := range pl.owned {
				env.Clk.Sleep(env.CostOf(float64(p.InteriorElems())))
				a.advance(a.blocks[l], pl.noNbr[l])
			}
			mpi.Waitall(sendReqs)
		}
	}
	return a.output()
}

// depKeys are per-epoch dependency bases for the hybrid variants.
type depKeys struct{ block, face, rslot, sslot int }

// RunTAMPI executes the hybrid MPI+OmpSs-2 variant.
func RunTAMPI(env *cluster.Env, p Params, epochs []*Epoch) Output {
	return runHybrid(env, p, epochs, false)
}

// RunTAGASPI executes the hybrid GASPI+OmpSs-2 variant, with TAMPI inside
// the load-balancing stage (library interoperability, §VI-B).
func RunTAGASPI(env *cluster.Env, p Params, epochs []*Epoch) Output {
	return runHybrid(env, p, epochs, true)
}

func runHybrid(env *cluster.Env, p Params, epochs []*Epoch, oneSided bool) Output {
	a := newApp(env, p, epochs)
	rt := env.RT
	for ei, e := range epochs {
		pl := a.plan(e)
		if ei > 0 {
			rt.TaskWait() // the refinement stage is not fully taskified
		}
		t0 := env.Clk.Now()
		if ei == 0 {
			a.initialBlocks(pl)
		} else {
			a.migrate(epochs[ei-1], e, pl)
			env.Clk.Sleep(a.seqRefineCost(e))
		}
		if oneSided {
			a.agree(pl)
			a.seedAcks(pl)
		}
		// rt.Now: the seed task's creation cost ends the refinement stage.
		a.refine += rt.Now() - t0
		s0, s1 := a.stepsOf(ei)
		keys := &depKeys{} // shared across the epoch's steps: the data flow
		for s := s0; s < s1; s++ {
			lastOfEpoch := s == s1-1
			if oneSided {
				a.tagaspiStep(pl, keys, s, lastOfEpoch)
			} else {
				a.tampiStep(pl, keys)
			}
			rt.Throttle(4096)
		}
	}
	rt.TaskWait()
	return a.output()
}

// seedAcks fires one ack per inbound message so senders may issue the
// epoch's first writes (§IV-B: the receiver permits any sender before this
// latter writes to its receiving buffer).
func (a *app) seedAcks(pl *plan) {
	if len(pl.inRemote) == 0 {
		return
	}
	tg := a.env.TAGASPI
	e := pl.e
	Q := a.env.GASPI.Queues()
	msgs := append([]Msg(nil), pl.inRemote...)
	acks := append([]int(nil), pl.ackID...)
	a.env.RT.Submit(func(tk *tasking.Task) {
		for k, m := range msgs {
			must(tg.Notify(tk, gaspisim.Rank(e.Owner[m.Src]), segSend,
				gaspisim.NotificationID(acks[k]), 1, k%Q))
		}
	}, tasking.WithLabel("seed acks"))
}

// tampiStep submits one step's tasks for the TAMPI variant.
func (a *app) tampiStep(pl *plan, keys *depKeys) {
	p, env, rt, e := a.p, a.env, a.env.RT, pl.e
	mpi, ta := env.MPI, env.TAMPI
	for k, m := range pl.outRemote {
		src := a.blocks[m.Src]
		bidx := e.Local[m.Src]
		rt.Submit(func(tk *tasking.Task) {
			nv := m.Elems * p.Vars
			tk.Compute(env.CostOf(float64(nv) / 2))
			buf := a.sendBytes(pl, k)
			a.pack(src, m, buf)
			ta.Iwait(tk, mpi.Isend(buf, mpisim.Rank(e.Owner[m.Dst]), m.Tag))
		}, a.deps.With(
			tasking.In(&keys.block, bidx, bidx+1),
			tasking.InOut(&keys.sslot, k, k+1)),
			tasking.WithLabel("pack+send"))
	}
	for k, m := range pl.inRemote {
		rt.Submit(func(tk *tasking.Task) {
			ta.Iwait(tk, mpi.Irecv(a.recvBytes(pl, k), mpisim.Rank(e.Owner[m.Src]), m.Tag))
		}, a.deps.With(tasking.Out(&keys.rslot, k, k+1)),
			tasking.WithLabel("recv"))
		a.submitUnpack(pl, keys, k, m, false, false)
	}
	a.submitLocalAndCompute(pl, keys)
}

// tagaspiStep submits one step's tasks for the TAGASPI variant.
func (a *app) tagaspiStep(pl *plan, keys *depKeys, s int, lastOfEpoch bool) {
	p, env, rt, e := a.p, a.env, a.env.RT, pl.e
	tg := env.TAGASPI
	Q := env.GASPI.Queues()
	for k, m := range pl.outRemote {
		src := a.blocks[m.Src]
		bidx := e.Local[m.Src]
		rt.Submit(func(tk *tasking.Task) {
			nv := m.Elems * p.Vars
			tk.Then(env.CostOf(float64(nv)/2), func() {
				a.pack(src, m, a.sendBytes(pl, k))
				must(tg.WriteNotify(tk, segSend, pl.outOff[k],
					gaspisim.Rank(e.Owner[m.Dst]), segRecv, pl.remOff[k],
					nv*memory.F64Bytes,
					gaspisim.NotificationID(pl.remNotif[k]), int64(s+1), k%Q))
			})
		}, a.deps.With(
			tasking.In(&keys.block, bidx, bidx+1),
			tasking.InOut(&keys.sslot, k, k+1)),
			// Wait for the consumer's ack before writing; on the epoch's
			// first step the seed pre-armed every slot, so the wait is
			// immediate.
			tasking.WithOnReady(func(tk *tasking.Task) {
				tg.NotifyIwait(tk, segSend, gaspisim.NotificationID(k), nil)
			}),
			tasking.WithLabel("pack+write"), tasking.NonBlocking())
	}
	for k, m := range pl.inRemote {
		rt.Submit(func(tk *tasking.Task) {
			tg.NotifyIwait(tk, segRecv, gaspisim.NotificationID(k), nil)
		}, a.deps.With(tasking.Out(&keys.rslot, k, k+1)),
			tasking.WithLabel("wait data"), tasking.NonBlocking())
		a.submitUnpack(pl, keys, k, m, true, lastOfEpoch)
	}
	a.submitLocalAndCompute(pl, keys)
}

// submitUnpack creates the unpack task of inbound message k. For the
// one-sided variant it fires the ack notification right after unpacking,
// except on the epoch's last step (the ack would have no matching write
// and would leak into the next epoch).
func (a *app) submitUnpack(pl *plan, keys *depKeys, k int, m Msg, oneSided, lastOfEpoch bool) {
	p, env, rt, e := a.p, a.env, a.env.RT, pl.e
	dst := a.blocks[m.Dst]
	fidx := e.Local[m.Dst]*6 + m.Face
	Q := env.GASPI.Queues()
	rt.Submit(func(tk *tasking.Task) {
		nv := m.Elems * p.Vars
		tk.Then(env.CostOf(float64(nv)/2), func() {
			a.unpack(dst, m, a.recvBytes(pl, k))
			if oneSided && !lastOfEpoch {
				must(env.TAGASPI.Notify(tk, gaspisim.Rank(e.Owner[m.Src]), segSend,
					gaspisim.NotificationID(pl.ackID[k]), 1, k%Q))
			}
		})
	}, a.deps.With(
		tasking.In(&keys.rslot, k, k+1),
		tasking.Out(&keys.face, fidx, fidx+1)),
		tasking.WithLabel("unpack"), tasking.NonBlocking())
}

// submitLocalAndCompute creates the intra-rank halo copies and the stencil
// tasks of one step.
func (a *app) submitLocalAndCompute(pl *plan, keys *depKeys) {
	p, env, rt, e := a.p, a.env, a.env.RT, pl.e
	for _, m := range pl.inLocal {
		src, dst := a.blocks[m.Src], a.blocks[m.Dst]
		sidx, fidx := e.Local[m.Src], e.Local[m.Dst]*6+m.Face
		rt.Submit(func(tk *tasking.Task) {
			nv := m.Elems * p.Vars
			tk.Then(env.CostOf(float64(nv)), func() { a.copyHalo(src, dst, m) })
		}, a.deps.With(
			tasking.In(&keys.block, sidx, sidx+1),
			tasking.Out(&keys.face, fidx, fidx+1)),
			tasking.WithLabel("local halo"), tasking.NonBlocking())
	}
	for _, l := range pl.owned {
		b := a.blocks[l]
		bidx := e.Local[l]
		faces := pl.noNbr[l]
		rt.Submit(func(tk *tasking.Task) {
			tk.Then(env.CostOf(float64(p.InteriorElems())), func() { a.advance(b, faces) })
		}, a.deps.With(
			tasking.InOut(&keys.block, bidx, bidx+1),
			tasking.In(&keys.face, bidx*6, bidx*6+6)),
			tasking.WithLabel("stencil"), tasking.NonBlocking())
	}
}
