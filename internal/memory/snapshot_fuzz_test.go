package memory_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/vclock"
)

// A snapshot program runs on rank 0 over two or three buffers of snapB
// bytes, laid out back to back in one GASPI segment, and sends everything
// to rank 1. Eager sends and short one-sided operations carry a buffer's
// first snapShort bytes, the others the whole buffer.
const (
	snapB     = 2048
	snapShort = 64
	snapMax   = 48 // operations per program
)

// Operation kinds of a snapshot program.
const (
	snapFill        = iota // set every byte of the buffer to val%3
	snapPoke               // flip one bit, near the head or the tail
	snapEager              // mpisim Isend of snapShort bytes
	snapRendezvous         // mpisim Isend of snapB bytes (above the threshold)
	snapPut                // mpisim Put into rank 1's window
	snapWriteNotify        // gaspisim WriteNotify into rank 1's segment
	snapKinds
)

type snapOp struct {
	kind, buf int
	val       byte
}

// size is the byte count an issuing operation carries.
func (o snapOp) size() int {
	if o.kind == snapEager || o.kind >= snapPut && o.val&1 == 0 {
		return snapShort
	}
	return snapB
}

// pokeAt is the byte a poke flips: in the head that short operations
// carry, or in the tail only whole-buffer operations see.
func (o snapOp) pokeAt() int {
	if o.val&1 == 0 {
		return int(o.val/2) % snapShort
	}
	return snapB - 1 - int(o.val/2)%snapShort
}

// snapDecode reads the buffer count from the first byte and then one
// operation per two bytes.
func snapDecode(in []byte) (nbuf int, prog []snapOp) {
	if len(in) == 0 {
		return 2, nil
	}
	nbuf, in = 2+int(in[0]%2), in[1:]
	for ; len(in) >= 2 && len(prog) < snapMax; in = in[2:] {
		prog = append(prog, snapOp{kind: int(in[0]) % snapKinds, buf: int(in[0]) / snapKinds % nbuf, val: in[1]})
	}
	return nbuf, prog
}

// snapEncode is snapDecode's inverse, for the seed corpus.
func snapEncode(nbuf int, prog ...snapOp) []byte {
	out := []byte{byte(nbuf - 2)}
	for _, o := range prog {
		out = append(out, byte(o.buf*snapKinds+o.kind), o.val)
	}
	return out
}

// snapReference replays prog on plain slices and logs, per issued
// operation, the bytes its buffer held at issue. The simulated sender
// rewrites a buffer only after observing the completion of every operation
// issued from it, so this is also what it held at local completion.
func snapReference(nbuf int, prog []snapOp) [][]byte {
	bufs := make([][]byte, nbuf)
	for i := range bufs {
		bufs[i] = make([]byte, snapB)
	}
	var log [][]byte
	for _, o := range prog {
		b := bufs[o.buf]
		switch o.kind {
		case snapFill:
			for i := range b {
				b[i] = o.val % 3
			}
		case snapPoke:
			b[o.pokeAt()] ^= 1
		default:
			log = append(log, bytes.Clone(b[:o.size()]))
		}
	}
	return log
}

// snapRun runs prog on a two-node job and returns, per issued operation,
// the bytes rank 1 received, found in its window or found in its segment.
func snapRun(t *testing.T, nbuf int, prog []snapOp) [][]byte {
	prof := fabric.Profile{
		Name:               "snapshot",
		InterNodeLatency:   time.Microsecond,
		IntraNodeLatency:   100 * time.Nanosecond,
		InterNodeBandwidth: 1e9,
		IntraNodeBandwidth: 2e9,
		EagerThreshold:     1024,
		RDMAEmulFactor:     1,
	}
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), prof)
	mw, gw := mpisim.NewWorld(fab, 1), gaspisim.NewWorld(fab, 1, 1)
	var issued []snapOp
	for _, o := range prog {
		if o.kind >= snapEager {
			issued = append(issued, o)
		}
	}
	done := len(issued) // the final handshake's tag
	got := make([][]byte, len(issued))
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Launch(2)(func(r int) {
		defer wg.Done()
		mp, gp := mw.Proc(mpisim.Rank(r)), gw.Proc(gaspisim.Rank(r))
		win := memory.NewSegment(0, len(issued)*snapB)
		w := mp.WinCreate(win)
		seg, err := gp.SegmentCreate(0, max(nbuf, len(issued))*snapB)
		if err != nil {
			t.Error(err)
			return
		}
		if r == 1 {
			reqs := make([]*mpisim.Request, len(issued))
			for k, o := range issued {
				if o.kind <= snapRendezvous {
					got[k] = make([]byte, o.size())
					reqs[k] = mp.Irecv(got[k], 0, k)
				}
			}
			for k, o := range issued {
				if o.kind == snapWriteNotify {
					gp.NotifyWaitSome(0, gaspisim.NotificationID(k), 1, gaspisim.Block)
				}
			}
			mp.Waitall(reqs)
			mp.Recv(nil, 0, done)
			for k, o := range issued {
				switch o.kind {
				case snapPut:
					got[k] = bytes.Clone(win.Bytes()[k*snapB:][:o.size()])
				case snapWriteNotify:
					got[k] = bytes.Clone(seg.Bytes()[k*snapB:][:o.size()])
				}
			}
			return
		}
		// Per buffer: the sends, puts and writes not yet known complete.
		sends := make([][]*mpisim.Request, nbuf)
		puts, writes := make([]bool, nbuf), make([]bool, nbuf)
		complete := func(b int) {
			mp.Waitall(sends[b])
			sends[b] = nil
			if puts[b] {
				mp.Flush(w, 1)
			}
			if writes[b] {
				gp.Wait(0)
			}
			puts[b], writes[b] = false, false
		}
		k := 0
		for _, o := range prog {
			buf := seg.Bytes()[o.buf*snapB:][:snapB]
			switch o.kind {
			case snapFill:
				complete(o.buf)
				for i := range buf {
					buf[i] = o.val % 3
				}
				continue
			case snapPoke:
				complete(o.buf)
				buf[o.pokeAt()] ^= 1
				continue
			case snapEager, snapRendezvous:
				sends[o.buf] = append(sends[o.buf], mp.Isend(buf[:o.size()], 1, k))
			case snapPut:
				mp.Put(w, buf[:o.size()], 1, k*snapB)
				puts[o.buf] = true
			case snapWriteNotify:
				if err := gp.WriteNotify(0, o.buf*snapB, 1, 0, k*snapB, o.size(),
					gaspisim.NotificationID(k), 1, 0, nil); err != nil {
					t.Error(err)
				}
				writes[o.buf] = true
			}
			k++
		}
		for b := range sends {
			complete(b)
		}
		mp.Send(nil, 1, done)
	})
	wg.Wait()
	return got
}

// FuzzPayloadSnapshot checks that sharing payload snapshots is exact
// (DESIGN.md §15): for generated programs of eager and rendezvous sends,
// puts and write-notifies over two or three buffers, rewritten only after
// their operations completed, every receive, window range and segment
// range holds what its buffer held at issue. The seed corpus runs inside
// go test; scripts/ci.sh spends ten seconds on new inputs.
func FuzzPayloadSnapshot(f *testing.F) {
	for _, seed := range snapCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		nbuf, prog := snapDecode(in)
		want := snapReference(nbuf, prog)
		got := snapRun(t, nbuf, prog)
		for k := range want {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("operation %d of %d carried bytes its buffer did not hold at issue", k, len(want))
			}
		}
	})
}

// snapCorpus is the seed corpus: each kind of operation repeated on one
// buffer across a rewrite the previous snapshot must not hide (the head,
// the tail, a whole fill), sharing between buffers of equal content, and
// a mixed program.
func snapCorpus() [][]byte {
	op := func(kind, buf int, val byte) snapOp { return snapOp{kind, buf, val} }
	var seeds [][]byte
	for _, kind := range []int{snapEager, snapRendezvous, snapPut, snapWriteNotify} {
		for _, val := range []byte{0, 1} { // short and whole operations
			seeds = append(seeds,
				snapEncode(2, op(kind, 0, val), op(snapPoke, 0, 4), op(kind, 0, val)),
				snapEncode(2, op(kind, 0, val), op(snapPoke, 0, 5), op(kind, 0, val)),
				snapEncode(2, op(kind, 0, val), op(snapFill, 0, 1), op(kind, 0, val), op(snapFill, 0, 3), op(kind, 0, val)),
				snapEncode(3, op(kind, 0, val), op(kind, 1, val), op(snapFill, 2, 2), op(kind, 2, val), op(kind, 0, val)),
			)
		}
	}
	return append(seeds, snapEncode(3,
		op(snapEager, 0, 0), op(snapPut, 1, 1), op(snapWriteNotify, 2, 0), op(snapRendezvous, 0, 0),
		op(snapFill, 1, 2), op(snapEager, 1, 0), op(snapPoke, 0, 9), op(snapWriteNotify, 0, 1),
		op(snapPut, 2, 0), op(snapPoke, 2, 6), op(snapEager, 2, 0), op(snapRendezvous, 1, 0)))
}

// TestSnapCodecRoundTrips pins the corpus encoding: every operation the
// corpus helpers can write decodes to itself.
func TestSnapCodecRoundTrips(t *testing.T) {
	for nbuf := 2; nbuf <= 3; nbuf++ {
		for kind := 0; kind < snapKinds; kind++ {
			for buf := 0; buf < nbuf; buf++ {
				want := snapOp{kind, buf, byte(kind*7 + buf)}
				n, prog := snapDecode(snapEncode(nbuf, want))
				if n != nbuf || len(prog) != 1 || prog[0] != want {
					t.Fatalf("%+v over %d buffers decodes to %+v over %d", want, nbuf, prog, n)
				}
			}
		}
	}
}
