package mpisim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/memory/pooltest"
)

// refMatcher is the reference the engine is checked against: MPI's
// matching rule written as two linear scans over two queues in post and
// arrival order. It shares no code with matcher (not even the tag rule).
type refMatcher struct {
	recvs []*Request
	msgs  []*inMsg
}

func refAccepts(r *Request, src Rank, tag int) bool {
	return r.src == src && r.tag == tag
}

func (ref *refMatcher) post(r *Request) *inMsg {
	for i, m := range ref.msgs {
		if refAccepts(r, m.src, m.tag) {
			ref.msgs = slices.Delete(ref.msgs, i, i+1)
			return m
		}
	}
	ref.recvs = append(ref.recvs, r)
	return nil
}

func (ref *refMatcher) arrive(m *inMsg) *Request {
	for i, r := range ref.recvs {
		if refAccepts(r, m.src, m.tag) {
			ref.recvs = slices.Delete(ref.recvs, i, i+1)
			return r
		}
	}
	ref.msgs = append(ref.msgs, m)
	return nil
}

// grouped returns the reference's leftovers grouped by source in the
// given order, each group in post or arrival order.
func (ref *refMatcher) grouped(order []Rank) (recvs []*Request, msgs []*inMsg) {
	for _, src := range order {
		for _, r := range ref.recvs {
			if r.src == src {
				recvs = append(recvs, r)
			}
		}
		for _, m := range ref.msgs {
			if m.src == src {
				msgs = append(msgs, m)
			}
		}
	}
	return recvs, msgs
}

// queued returns everything the engine still holds, grouped by source in
// first-contact order (returned as order) and in FIFO order within a
// source, after checking the lists' own invariants.
func (mt *matcher) queued(t *testing.T) (recvs []*Request, msgs []*inMsg, order []Rank) {
	for i := range mt.srcs {
		q := &mt.srcs[i]
		if slices.Contains(order, q.src) {
			t.Fatalf("source slice holds %d twice", q.src)
		}
		order = append(order, q.src)
		var lastR *Request
		for r := q.posted.head; r != nil; lastR, r = r, r.next {
			if r.src != q.src {
				t.Fatalf("receive list of source %d holds a receive from %d", q.src, r.src)
			}
			recvs = append(recvs, r)
		}
		if q.posted.tail != lastR {
			t.Fatalf("receive list of source %d: tail is not the last entry", q.src)
		}
		var lastM *inMsg
		for m := q.unexp.head; m != nil; lastM, m = m, m.next {
			if m.src != q.src {
				t.Fatalf("message list of source %d holds a message from %d", q.src, m.src)
			}
			msgs = append(msgs, m)
		}
		if q.unexp.tail != lastM {
			t.Fatalf("message list of source %d: tail is not the last entry", q.src)
		}
	}
	return recvs, msgs, order
}

// Fuzz input: three bytes per operation — post or arrival, an index into
// fzSrcs, an index into fzTags (each modulo the table length).
var (
	fzSrcs = []Rank{0, 1, 2, 3}
	fzTags = []int{0, 1, 2, 3, -2, -3} // -2, -3: reserved collective tags
)

func fzOp(post bool, src Rank, tag int) []byte {
	kind := byte(1)
	if post {
		kind = 0
	}
	return []byte{kind, byte(slices.Index(fzSrcs, src)), byte(slices.Index(fzTags, tag))}
}

func fzDecode(b []byte) (post bool, src Rank, tag int) {
	return b[0]&1 == 0, fzSrcs[int(b[1])%len(fzSrcs)], fzTags[int(b[2])%len(fzTags)]
}

func fzPost(src Rank, tag int) []byte   { return fzOp(true, src, tag) }
func fzArrive(src Rank, tag int) []byte { return fzOp(false, src, tag) }

// fzCorpus is the seed corpus: the shapes the engine's ordering argument
// has to survive.
func fzCorpus() [][]byte {
	var incastPosts, incastArrivals, reversePosts, oneSource []byte
	for k := 0; k < 4; k++ {
		for s := Rank(0); s < 4; s++ {
			incastPosts = append(incastPosts, fzPost(s, k)...)         // k-major, as hsMPIOnlyMain posts
			incastArrivals = append(incastArrivals, fzArrive(s, k)...) // in order per source
		}
		reversePosts = append(reversePosts, fzPost(0, 3-k)...)
		oneSource = append(oneSource, fzArrive(0, k)...)
	}
	return [][]byte{
		slices.Concat(incastArrivals, incastPosts), // senders outrun the receiver
		slices.Concat(incastPosts, incastArrivals),
		slices.Concat(oneSource, reversePosts),
		slices.Concat(reversePosts, oneSource),
		// Two sources' receives either side of a match.
		slices.Concat(fzPost(2, 0), fzPost(1, 0), fzArrive(1, 0), fzArrive(1, 0), fzArrive(2, 0)),
		slices.Concat(fzPost(1, 0), fzPost(2, 0), fzArrive(1, 0), fzArrive(2, 0), fzArrive(1, 0)),
		// One source's tags out of order.
		slices.Concat(fzPost(2, 1), fzPost(2, 0), fzPost(2, 1), fzArrive(2, 0), fzArrive(2, 1), fzArrive(2, 1)),
		slices.Concat(fzArrive(1, 0), fzArrive(2, 0), fzArrive(1, 1), fzPost(1, 1), fzPost(1, 0), fzPost(2, 0), fzPost(3, 0)),
		slices.Concat(fzArrive(3, 2), fzArrive(0, 2), fzPost(0, 2), fzPost(3, 2), fzPost(1, 2), fzArrive(1, 2)),
		// Collective rounds beside application tags of the same source.
		slices.Concat(fzPost(1, 0), fzArrive(1, -2), fzArrive(1, 0), fzPost(1, -2)),
		slices.Concat(fzPost(1, 3), fzPost(1, -3), fzArrive(1, -3), fzArrive(1, -2), fzPost(1, -2), fzArrive(1, 3)),
		slices.Concat(fzArrive(2, -2), fzArrive(2, 1), fzPost(2, 1), fzPost(2, -3), fzPost(2, -2)),
		// Repeated (source, tag) pairs.
		slices.Concat(fzPost(1, 1), fzPost(1, 1), fzPost(1, 1), fzArrive(1, 1), fzArrive(1, 1), fzArrive(1, 1), fzArrive(1, 1), fzPost(1, 1)),
		slices.Concat(fzArrive(0, 3), fzArrive(0, 3), fzPost(0, 3), fzPost(1, 3), fzPost(0, 3), fzArrive(0, 3)),
	}
}

// FuzzMatchOrder drives the matching engine and the linear-scan reference
// with the same sequence of posts and arrivals and requires the same
// pairing at every step and the same leftover queues at the end.
func FuzzMatchOrder(f *testing.F) {
	for _, seed := range fzCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var mt matcher
		var ref refMatcher
		for step := 0; len(in) >= 3; step, in = step+1, in[3:] {
			post, src, tag := fzDecode(in)
			if post {
				r := &Request{src: src, tag: tag}
				got, want := mt.post(r), ref.post(r)
				if got != want {
					t.Fatalf("step %d: post(src %d, tag %d) took %s, reference took %s", step, src, tag, fzMsg(got), fzMsg(want))
				}
				if got != nil && (got.next != nil || r.next != nil) {
					t.Fatalf("step %d: a matched pair is still linked", step)
				}
				continue
			}
			m := &inMsg{kind: kindEager, src: src, tag: tag}
			got, want := mt.arrive(m), ref.arrive(m)
			if got != want {
				t.Fatalf("step %d: arrive(src %d, tag %d) took %s, reference took %s", step, src, tag, fzRecv(got), fzRecv(want))
			}
			if got != nil && (got.next != nil || m.next != nil) {
				t.Fatalf("step %d: a matched pair is still linked", step)
			}
		}
		recvs, msgs, order := mt.queued(t)
		refRecvs, refMsgs := ref.grouped(order)
		if !slices.Equal(recvs, refRecvs) || len(refRecvs) != len(ref.recvs) {
			t.Fatalf("leftover receives differ: engine %d, reference %d", len(recvs), len(ref.recvs))
		}
		if !slices.Equal(msgs, refMsgs) || len(refMsgs) != len(ref.msgs) {
			t.Fatalf("leftover messages differ: engine %d, reference %d", len(msgs), len(ref.msgs))
		}
	})
}

func fzMsg(m *inMsg) string {
	if m == nil {
		return "nothing"
	}
	return fmt.Sprintf("message(src %d, tag %d)", m.src, m.tag)
}

func fzRecv(r *Request) string {
	if r == nil {
		return "nothing"
	}
	return fmt.Sprintf("receive(src %d, tag %d)", r.src, r.tag)
}

// TestFuzzCodecRoundTrips pins the corpus encoding: every operation the
// corpus helpers can write decodes to itself.
func TestFuzzCodecRoundTrips(t *testing.T) {
	for _, post := range []bool{true, false} {
		for _, src := range fzSrcs {
			for _, tag := range fzTags {
				p, s, g := fzDecode(fzOp(post, src, tag))
				if p != post || s != src || g != tag {
					t.Fatalf("op(post %v, src %d, tag %d) decodes to (%v, %d, %d)", post, src, tag, p, s, g)
				}
			}
		}
	}
}

// TestReleasedMessageCarriesNoLink: a message retired to the pool must
// not keep its place in an unexpected queue, or the next user of the
// object would splice a stale chain into another process's list.
func TestReleasedMessageCarriesNoLink(t *testing.T) {
	var mt matcher
	a, b := newInMsg(), newInMsg()
	a.kind, a.src, a.tag = kindEager, 1, 0
	b.kind, b.src, b.tag = kindEager, 1, 1
	mt.arrive(a)
	mt.arrive(b)
	if a.next != b {
		t.Fatal("queued message is not linked")
	}
	putInMsg(a)
	if a.next != nil {
		t.Fatalf("released message keeps next=%p", a.next)
	}
}

// TestReleaseMark: a released inMsg refuses a second putInMsg.
func TestReleaseMark(t *testing.T) {
	m := newInMsg()
	putInMsg(m)
	pooltest.Panics(t, map[string]func(){"mpisim: putInMsg of a released inMsg": func() { putInMsg(m) }})
	pooltest.Size[inMsg](t, 112)
}

// TestEagerTruncationPanics: an eager message longer than the matched
// receive buffer used to complete with the shortened count.
func TestEagerTruncationPanics(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(make([]byte, 100), 1, 3)
			return
		}
		p.clk.Sleep(100 * time.Microsecond) // let the message land first
		wantPanic(t, func() { p.Irecv(make([]byte, 10), 0, 3) },
			"rank 1", "100 bytes", "rank 0", "tag 3", "10-byte")
	})
}

// TestRendezvousTruncationPanics hands the delivery handler the data leg
// of a rendezvous whose receive buffer is too short. The handler runs as
// a clock callback in a real job, on whichever goroutine advances the
// clock, where the test cannot recover a panic, so it calls it directly.
func TestRendezvousTruncationPanics(t *testing.T) {
	withWorld(2, 1, testProfile(), func(p *Proc) {
		if p.Rank() != 1 {
			return
		}
		m := newInMsg()
		m.kind, m.src, m.tag = kindRData, 0, 5
		m.data = p.snap.Take(make([]byte, 4096))
		m.recvBuf, m.recvReq = make([]byte, 2048), &Request{p: p}
		fm := fabric.NewMessage()
		fm.Payload = m
		wantPanic(t, func() { p.deliver(fm) },
			"rank 1", "4096 bytes", "rank 0", "tag 5", "2048-byte")
	})
}

// wantPanic runs fn and requires a panic whose message names every part.
func wantPanic(t *testing.T, fn func(), parts ...string) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		for _, want := range parts {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message %q does not say %q", msg, want)
			}
		}
	}()
	fn()
}

// BenchmarkMatch measures the engine alone, one round of posts and
// arrivals per iteration, and reports host ns per matched message.
func BenchmarkMatch(b *testing.B) {
	run := func(b *testing.B, msgs int, round func(mt *matcher)) {
		var mt matcher
		round(&mt) // first contact: the per-source queues now exist
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(&mt)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*msgs), "ns/msg")
	}

	// The incast_mesh_64n shape: 63 senders outrun the receiver, which
	// then posts k-major; each source's traffic is in order.
	b.Run("incast63x512", func(b *testing.B) {
		const S, K = 63, 512
		reqs, msgs := make([]Request, S*K), make([]inMsg, S*K)
		run(b, S*K, func(mt *matcher) {
			for k := 0; k < K; k++ {
				for s := 0; s < S; s++ {
					m := &msgs[k*S+s]
					m.src, m.tag = Rank(s+1), k
					if mt.arrive(m) != nil {
						b.Fatal("arrival matched an empty queue")
					}
				}
			}
			for k := 0; k < K; k++ {
				for s := 0; s < S; s++ {
					r := &reqs[k*S+s]
					r.src, r.tag = Rank(s+1), k
					if mt.post(r) != &msgs[k*S+s] {
						b.Fatal("post took the wrong message")
					}
				}
			}
		})
	})

	// The gs_mpionly_256n shape: two neighbours, eight tags each, receives
	// posted first, depth never above eight per source.
	b.Run("stencil2x8", func(b *testing.B) {
		const S, K = 2, 8
		reqs, msgs := make([]Request, S*K), make([]inMsg, S*K)
		run(b, S*K, func(mt *matcher) {
			for k := 0; k < K; k++ {
				for s := 0; s < S; s++ {
					r := &reqs[k*S+s]
					r.src, r.tag = Rank(s+1), k
					mt.post(r)
				}
			}
			for k := 0; k < K; k++ {
				for s := 0; s < S; s++ {
					m := &msgs[k*S+s]
					m.src, m.tag = Rank(s+1), k
					if mt.arrive(m) != &reqs[k*S+s] {
						b.Fatal("arrival took the wrong receive")
					}
				}
			}
		})
	})

	// The mpisim.match_depth4k_ns probe's shape, which stays O(k): 4,096
	// earlier receives from the same source under other tags sit in front
	// of every ping-pong receive, and the engine walks them (DESIGN.md §14).
	b.Run("sameSource4096", func(b *testing.B) {
		const depth = 4096
		deep := make([]Request, depth)
		var r Request
		var m inMsg
		first := true
		run(b, 1, func(mt *matcher) {
			if first {
				first = false
				for i := range deep {
					deep[i].src, deep[i].tag = 1, i+1
					mt.post(&deep[i])
				}
			}
			r.src, r.tag = 1, 0
			mt.post(&r)
			m.src, m.tag = 1, 0
			if mt.arrive(&m) != &r {
				b.Fatal("arrival took the wrong receive")
			}
		})
	})
}
