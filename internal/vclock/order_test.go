package vclock

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fzRef is the reference the timer queue is checked against: the plain list
// of everything armed, with the (deadline, seq) the clock gave it. Whatever
// fires must be the smallest entry of the list, at a virtual time that is
// the entry's deadline or — for a deadline already due — has not moved.
type fzRef struct {
	t  *testing.T
	c  *VirtualClock
	mu sync.Mutex

	armed []fzEntry
	now   time.Duration // Now() as of the last fire
	last  time.Duration // latest deadline ever armed
	fires int
}

type fzEntry struct {
	id       int
	deadline time.Duration
	seq      uint64
}

func (r *fzRef) arm(id int, deadline time.Duration, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = append(r.armed, fzEntry{id, deadline, seq})
	r.last = max(r.last, deadline)
}

func (r *fzRef) find(id int) int {
	for i, e := range r.armed {
		if e.id == id {
			return i
		}
	}
	return -1
}

// cancel forgets id, whose parker is about to be woken by an Unpark.
func (r *fzRef) cancel(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.find(id)
	if i < 0 {
		r.t.Errorf("cancel: timer %d is not armed", id)
		return
	}
	r.armed = append(r.armed[:i], r.armed[i+1:]...)
}

// fire checks that id is what a sorted (deadline, seq) list fires next.
func (r *fzRef) fire(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.find(id)
	if i < 0 {
		r.t.Errorf("fire %d: timer %d fired but is not armed", r.fires, id)
		return
	}
	e := r.armed[i]
	for _, o := range r.armed {
		if o.deadline < e.deadline || o.deadline == e.deadline && o.seq < e.seq {
			r.t.Errorf("fire %d: timer %d (deadline %d, seq %d) fired before timer %d (deadline %d, seq %d)",
				r.fires, e.id, e.deadline, e.seq, o.id, o.deadline, o.seq)
			break
		}
	}
	now := r.c.Now()
	if want := max(r.now, e.deadline); now != want {
		r.t.Errorf("fire %d: timer %d (deadline %d) fired at Now() = %d, want %d", r.fires, id, e.deadline, now, want)
	}
	r.now = now
	r.fires++
	r.armed = append(r.armed[:i], r.armed[i+1:]...)
}

func (r *fzRef) pending() (n int, last time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.armed), r.last
}

// Delays of the generated events, ns. The first table is the services'
// shape, a few constants armed over and over; the second has more distinct
// constants than there are lanes, so some of them must share the heap.
var (
	fzFewDelays  = [3]time.Duration{2, 3, 7}
	fzManyDelays = [eventLanes + 4]time.Duration{10, 11, 12, 13, 14, 15, 16, 17}
)

const (
	fzMaxHelpers = 12
	fzMaxOps     = 300 // the reference is a linear scan per fire
	fzStreams    = 3
)

// fzItem is one stream item: a reference id and how many more times the
// stream's callback pushes it again, d later.
type fzItem struct {
	id     int
	rearms int
	d      time.Duration
}

// fzHelper is a goroutine in ParkTimeout that the driver may Unpark.
type fzHelper struct {
	id   int
	p    *Parker
	done atomic.Bool // its timer fired, or an Unpark ended it
}

// FuzzTimerOrder drives one clock from a single driver goroutine with a
// generated program — callback events with repeated, distinct, random and
// zero delays, events that re-arm from their own callback, pairs pushed in
// the swapped order two racing After calls can produce, driver sleeps,
// ParkTimeout goroutines and Unparks that wake them early, and stream
// pushes that extend the tail, land mid-FIFO, land ahead of the head (the
// re-key) or come from the stream's own callback —
// and requires the fire order and Now() of a sorted (deadline, seq) list,
// and nothing left armed or queued at the end.
//
// Each step leaves every goroutine but the driver parked (settle), so that
// the program is the only source of order.
func FuzzTimerOrder(f *testing.F) {
	for _, seed := range fzTimerCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		in = in[:min(len(in), 2*fzMaxOps)]
		c := NewVirtual()
		ref := &fzRef{t: t, c: c}
		var helpers []*fzHelper
		var events []*Event
		var wg sync.WaitGroup
		ids := 0
		newID := func() int { ids++; return ids }

		// arm arms a fresh event that fires once and then re-arms itself
		// rearms more times, d later each time.
		arm := func(d time.Duration, rearms int) {
			id := newID()
			var ev *Event
			ev = newEvent(c, func() {
				ref.fire(id)
				if rearms > 0 {
					rearms--
					ev.After(d)
					ref.arm(id, ev.deadline, ev.seq)
				}
			})
			events = append(events, ev)
			ev.After(d)
			ref.arm(id, ev.deadline, ev.seq)
		}

		// Streams: every push is one reference entry, keyed with the
		// sequence the push drew (only the pusher is running).
		var streams [fzStreams]Stream[fzItem]
		push := func(s *Stream[fzItem], d time.Duration, it fzItem) {
			s.Push(d, it)
			ref.arm(it.id, c.Now()+max(d, 0), c.seq.Load())
		}
		for i := range streams {
			s := &streams[i]
			InitStream(c, s, func(it fzItem) {
				ref.fire(it.id)
				if it.rearms > 0 {
					it.rearms--
					push(s, it.d, it)
				}
			})
		}
		// untilTail and untilHead are the delays from now to a stream's
		// tail and head deadlines, zero for an empty stream.
		untilTail := func(s *Stream[fzItem]) time.Duration {
			if s.Len() == 0 {
				return 0
			}
			return s.items[len(s.items)-1].deadline - c.Now()
		}
		untilHead := func(s *Stream[fzItem]) time.Duration {
			if s.Len() == 0 {
				return 0
			}
			return s.items[s.head].deadline - c.Now()
		}

		join(c, func() {
			driver := c.Parker()
			settleID := newID()
			settleEv := newEvent(c, func() {
				ref.fire(settleID)
				driver.Unpark()
			})
			// settle returns once every other goroutine is parked again
			// and everything due at this instant and armed before has fired.
			settle := func() {
				settleEv.After(0)
				ref.arm(settleID, settleEv.deadline, settleEv.seq)
				driver.Park()
			}
			for ; len(in) >= 2; in = in[2:] {
				op, arg := in[0]%12, int(in[1])
				s := &streams[arg%fzStreams]
				switch op {
				case 0:
					arm(fzFewDelays[arg%len(fzFewDelays)], 0)
				case 1:
					arm(fzManyDelays[arg%len(fzManyDelays)], 0)
				case 2:
					arm(time.Duration(arg%64), 0) // 0: fires at this instant
				case 3:
					arm(fzFewDelays[arg%len(fzFewDelays)], 1+arg/64)
				case 4:
					// Two After calls that drew their sequences in one order
					// and took the clock lock in the other.
					d := fzFewDelays[arg%len(fzFewDelays)]
					a, b := newEvent(c, nil), newEvent(c, nil)
					for _, ev := range []*Event{a, b} {
						id := newID()
						ev.fn = func() { ref.fire(id) }
						ev.deadline, ev.seq = c.Now()+d, c.seq.Add(1)
						ref.arm(id, ev.deadline, ev.seq)
						events = append(events, ev)
					}
					c.mu.Lock()
					c.pushEventLocked(&b.timer, d)
					c.pushEventLocked(&a.timer, d)
					c.mu.Unlock()
				case 5:
					if d := time.Duration(arg % 16); d > 0 {
						id := newID()
						ref.arm(id, c.Now()+d, c.seq.Load()+1) // the driver is the only one running
						c.Sleep(d)
						ref.fire(id)
					}
				case 6:
					if len(helpers) == fzMaxHelpers {
						continue
					}
					// ParkTimeout: an early Unpark removes the timer from
					// the middle of the heap.
					h := &fzHelper{id: newID(), p: c.Parker()}
					helpers = append(helpers, h)
					wg.Add(1)
					d := time.Duration(1 + arg%32)
					c.Go(func() {
						defer wg.Done()
						if !h.p.ParkTimeout(d) {
							ref.fire(h.id)
						}
						h.done.Store(true)
					})
					settle() // the helper has drawn its sequence and parked
					ref.arm(h.id, h.p.t.deadline, h.p.t.seq)
				case 7:
					if len(helpers) == 0 {
						continue
					}
					h := helpers[arg%len(helpers)]
					if h.done.Load() {
						continue
					}
					ref.cancel(h.id)
					h.p.Unpark()
					settle() // the helper has left
				case 8:
					// In order: at or beyond the tail's deadline.
					push(s, untilTail(s)+time.Duration(arg/fzStreams%8), fzItem{id: newID()})
				case 9:
					// Between the head and the tail deadlines: mid-FIFO,
					// after every queued item of an equal deadline.
					head, tail := untilHead(s), untilTail(s)
					push(s, head+(tail-head)*time.Duration(arg/fzStreams%8)/8, fzItem{id: newID()})
				case 10:
					// Ahead of the head, when it lies in the future.
					d := untilHead(s)
					if d > 0 {
						d -= 1 + time.Duration(arg/fzStreams)%d
					}
					push(s, d, fzItem{id: newID()})
				case 11:
					// The callback pushes the item again, possibly ahead of
					// what is queued behind it.
					it := fzItem{id: newID(), rearms: 1 + arg/64, d: time.Duration(arg / fzStreams % 8)}
					push(s, fzFewDelays[arg%len(fzFewDelays)], it)
				}
			}
			// Outlive everything, re-arms included.
			for n, last := ref.pending(); n > 0; n, last = ref.pending() {
				c.Sleep(max(last-c.Now(), 0) + 1)
			}
		})
		wg.Wait()
		if n := len(c.timers); n != 0 {
			t.Errorf("%d timers left on the heap", n)
		}
		for i := range c.lanes {
			if !c.lanes[i].empty() {
				t.Errorf("lane %d (delay %d) is not empty", i, c.lanes[i].d)
			}
		}
		for i, ev := range events {
			if ev.index != unarmed {
				t.Errorf("event %d is still armed (index %d)", i, ev.index)
			}
		}
		for i := range streams {
			if s := &streams[i]; s.Len() != 0 || s.ev.index != unarmed {
				t.Errorf("stream %d holds %d items, event index %d; want empty and unarmed", i, s.Len(), s.ev.index)
			}
		}
		for _, h := range helpers {
			if !h.done.Load() {
				t.Errorf("helper %d never finished", h.id)
			}
		}
	})
}

// Corpus opcodes, as FuzzTimerOrder decodes them.
const (
	fzFew = iota
	fzMany
	fzRandom
	fzRearm
	fzRaced
	fzSleep
	fzTimeout
	fzUnpark
	fzStreamTail
	fzStreamMid
	fzStreamAhead
	fzStreamRearm
)

func fzOps(ops ...byte) []byte { return ops }

func fzTimerCorpus() [][]byte {
	// The services' shape: three constant delays armed over and over while
	// time moves, so keys of different lanes and the driver's heap timer tie.
	var service []byte
	for i := byte(0); i < 40; i++ {
		service = append(service, fzFew, i, fzFew, i+1, fzSleep, 1+i%3)
	}
	// More distinct delays than lanes, then the few again once lanes drain.
	var many []byte
	for i := byte(0); i < 24; i++ {
		many = append(many, fzMany, i, fzFew, i)
	}
	many = append(many, fzSleep, 15, fzSleep, 15)
	for i := byte(0); i < 8; i++ {
		many = append(many, fzMany, 7-i)
	}
	return [][]byte{
		service,
		many,
		// Zero delays fire at this instant, after what was armed for it.
		fzOps(fzRandom, 0, fzFew, 0, fzRandom, 0, fzRandom, 2, fzSleep, 2, fzRandom, 0, fzTimeout, 0, fzRandom, 0),
		// Random delays land before the tail of whatever lane they key.
		fzOps(fzRandom, 9, fzRandom, 5, fzSleep, 4, fzRandom, 5, fzRandom, 9, fzRandom, 1, fzSleep, 3, fzRandom, 6),
		// Re-arming from the callback, against fresh arms of the same delay.
		fzOps(fzRearm, 64, fzRearm, 129, fzFew, 0, fzSleep, 2, fzFew, 0, fzRearm, 194, fzSleep, 3, fzFew, 1),
		// Raced pairs: the later-drawn key takes the lane, the earlier one must not follow it.
		fzOps(fzFew, 0, fzRaced, 0, fzFew, 0, fzSleep, 1, fzRaced, 0, fzRaced, 1, fzFew, 1),
		fzOps(fzRaced, 2, fzSleep, 7, fzRaced, 2, fzRearm, 66),
		// A lane head and the heap top with one deadline: seq decides.
		fzOps(fzSleep, 1, fzTimeout, 1, fzFew, 0, fzSleep, 3, fzFew, 0, fzTimeout, 1),
		fzOps(fzFew, 1, fzTimeout, 2, fzFew, 1, fzTimeout, 2, fzFew, 1, fzSleep, 9),
		// Early Unparks: a timer leaves the middle of the heap; a late one finds its helper gone.
		fzOps(fzTimeout, 20, fzTimeout, 5, fzTimeout, 30, fzTimeout, 9, fzUnpark, 1, fzSleep, 6, fzUnpark, 0, fzUnpark, 3, fzFew, 2),
		fzOps(fzTimeout, 5, fzTimeout, 0, fzTimeout, 7, fzUnpark, 0, fzUnpark, 2, fzSleep, 2, fzUnpark, 2, fzUnpark, 0, fzSleep, 4, fzUnpark, 1),
		// The timer that replaces an unparked one belongs above the hole: 4-ary heap
		// 1 | 20 5 30 31 | 25 26 27 28 | 8, remove 25, and 8 must climb over 20.
		fzOps(fzTimeout, 0, fzTimeout, 19, fzTimeout, 4, fzTimeout, 29, fzTimeout, 30, fzTimeout, 24, fzTimeout, 25,
			fzTimeout, 26, fzTimeout, 27, fzTimeout, 7, fzUnpark, 5),
		// Everything at once.
		slices.Concat(service[:30], fzOps(fzTimeout, 3, fzRaced, 0, fzTimeout, 2, fzRearm, 65, fzUnpark, 0, fzMany, 3, fzMany, 4, fzMany, 5, fzUnpark, 1), many[:20]),
		// Streams (the argument mod 3 picks one): in-order pushes beside
		// lane events, then pushes mid-FIFO and ahead of the head.
		fzOps(fzStreamTail, 0, fzStreamTail, 3, fzFew, 0, fzStreamTail, 6, fzStreamTail, 1, fzSleep, 2,
			fzStreamTail, 9, fzStreamMid, 12, fzStreamMid, 3, fzStreamAhead, 0, fzStreamAhead, 3, fzSleep, 5, fzStreamAhead, 6),
		// Ahead of a head that is not the heap top: two timed parks (due
		// at 2 and 3) sit above three streams headed at 7, and each
		// stream's re-key to now must sift up past them.
		fzOps(fzTimeout, 2, fzTimeout, 1, fzStreamTail, 21, fzStreamTail, 22, fzStreamTail, 23, fzStreamTail, 21, fzFew, 2,
			fzStreamAhead, 18, fzStreamAhead, 19, fzStreamMid, 22, fzStreamAhead, 20, fzSleep, 9, fzStreamAhead, 24),
		// Pushes from the stream's own callback, against pushes from the
		// driver: zero delays land ahead of what is queued.
		fzOps(fzStreamRearm, 192, fzStreamRearm, 3, fzStreamTail, 0, fzStreamRearm, 130, fzStreamAhead, 0,
			fzSleep, 3, fzStreamRearm, 66, fzStreamTail, 3, fzStreamMid, 0, fzSleep, 9, fzStreamRearm, 129),
		// Drained, then refilled: the event re-arms from empty.
		fzOps(fzStreamTail, 0, fzStreamTail, 3, fzSleep, 15, fzStreamTail, 0, fzStreamAhead, 0, fzSleep, 15,
			fzStreamMid, 0, fzStreamTail, 0, fzStreamAhead, 3, fzSleep, 1, fzStreamTail, 0),
	}
}
