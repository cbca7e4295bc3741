package vclock

import "time"

// Stream is an owner's FIFO of callback items: a run of timers that share
// one clock entry. Each Push keys its item (deadline, seq) exactly where and
// how Event.After would key an event armed at that point, and the stream's
// one embedded Event always carries the key of its head item, so the clock
// holds one entry per non-empty stream instead of one per item and still
// fires every item in the order a single heap holding all the keys would.
//
// Pushes that keep the key order append at the tail and take no clock lock.
// A push that sorts before the tail is inserted in key order; one that
// sorts before the head also re-keys the armed event. A stream is not safe
// for concurrent use: its owner serializes the pushes, either by pushing only
// from clock callbacks (which the advancing goroutine runs one at a time)
// and from the one goroutine that is running while every other registered
// goroutine is parked, or by pushing under a lock of its own (the tasking
// runtime pushes granted tasks under its core scheduler's lock). The stream
// fires only while every registered goroutine is parked, so no push races
// it. The callback obeys Event's rules: it must not block.
type Stream[T any] struct {
	ev    Event
	items []streamItem[T] // live items are items[head:], in (deadline, seq) order
	head  int
	fn    func(T)
}

type streamItem[T any] struct {
	deadline time.Duration
	seq      uint64
	v        T
}

func (a *streamItem[T]) before(b *streamItem[T]) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// InitStream binds a caller-owned Stream to c with callback fn, which
// receives each item when its deadline comes. Initialising a stream that
// holds items (its event is armed) panics.
func InitStream[T any](c *VirtualClock, s *Stream[T], fn func(T)) {
	c.InitEvent(&s.ev, s.fire)
	s.fn = fn
}

// Push queues v to be handed to the stream's callback d from now; a
// non-positive d fires at the current instant, after every timer armed
// earlier for it.
//
//tagalint:hotpath
func (s *Stream[T]) Push(d time.Duration, v T) {
	c := s.ev.c
	it := streamItem[T]{deadline: c.Now() + max(d, 0), seq: c.seq.Add(1), v: v}
	// at is the item's rank among the live ones; out-of-order keys are
	// rare and land near the tail, so the scan starts there.
	at := len(s.items) - s.head
	for at > 0 && it.before(&s.items[s.head+at-1]) {
		at--
	}
	s.grow()
	i := s.head + at
	copy(s.items[i+1:], s.items[i:len(s.items)-1])
	s.items[i] = it
	if at == 0 {
		s.keyHead()
	}
}

// grow makes room for one item at the tail, compacting the buffer in place
// when its popped prefix is at least half of a full buffer, as lane.push
// does: a stream that never drains still stays at its backlog high-water
// mark.
//
//tagalint:hotpath
func (s *Stream[T]) grow() {
	if len(s.items) == cap(s.items) && s.head > 0 && s.head >= len(s.items)/2 {
		n := copy(s.items, s.items[s.head:])
		clear(s.items[n:])
		s.items, s.head = s.items[:n], 0
	}
	//lint:ignore hotalloc the buffer grows to the stream's backlog high-water mark and is then compacted in place
	s.items = append(s.items, streamItem[T]{})
}

// keyHead gives the stream's event its head item's key: it arms the event
// of a stream that was empty, and moves the armed event up the heap when a
// push sorted ahead of the head (its key only ever decreases there).
//
//tagalint:hotpath
func (s *Stream[T]) keyHead() {
	c, t, h := s.ev.c, &s.ev.timer, &s.items[s.head]
	c.mu.Lock()
	t.deadline, t.seq = h.deadline, h.seq
	if t.index == unarmed {
		c.timers.push(t)
	} else {
		c.timers.up(t.index, timerEnt{t.deadline, t.seq, t})
	}
	c.mu.Unlock()
}

// fire runs when the head item is due: it pops the item, keys the event to
// the next one, and hands the item to the callback, which may push again.
//
//tagalint:hotpath
func (s *Stream[T]) fire() {
	it := s.items[s.head]
	s.items[s.head] = streamItem[T]{}
	s.head++
	if s.head == len(s.items) {
		s.items, s.head = s.items[:0], 0
	} else {
		s.keyHead()
	}
	s.fn(it.v)
}

// Len reports the number of queued items.
func (s *Stream[T]) Len() int { return len(s.items) - s.head }

// Cap reports how many items the stream's buffer holds room for: its host
// footprint, which footprint gates compare with Len's high-water mark.
func (s *Stream[T]) Cap() int { return cap(s.items) }
