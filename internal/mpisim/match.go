package mpisim

// matcher is one process's MPI matching state: the receives posted ahead
// of their message and the messages that arrived ahead of their receive.
// It has no clock, fabric or lock of its own (Proc.mu guards it).
//
// MPI pairs a message with the earliest-posted receive it satisfies and a
// receive with the earliest-arrived message it accepts. Every receive names
// one source and one tag, and messages of one source never overtake each
// other, so both orders are kept per source: each source that ever queued
// anything owns one FIFO of posted receives and one of unexpected
// messages, and a match only ever looks at one source's pair. In-order
// traffic therefore matches at a list head after a walk of the source
// slice; only receives or messages of the same source under other tags are
// stepped over (DESIGN.md §14 has the complexity table).
type matcher struct {
	srcs []srcQueue // in order of first contact
}

// srcQueue holds what is queued for one source rank.
type srcQueue struct {
	src    Rank
	posted recvList // receives naming src, in post order
	unexp  msgList  // eager/RTS messages from src, in arrival order
}

// recvList and msgList are intrusive singly linked FIFOs through
// Request.next and inMsg.next.
type recvList struct{ head, tail *Request }
type msgList struct{ head, tail *inMsg }

//tagalint:hotpath
func (l *recvList) push(r *Request) {
	if l.tail == nil {
		l.head = r
	} else {
		l.tail.next = r
	}
	l.tail = r
}

// unlink removes r, whose predecessor is prev (nil at the head).
//
//tagalint:hotpath
func (l *recvList) unlink(prev, r *Request) {
	if prev == nil {
		l.head = r.next
	} else {
		prev.next = r.next
	}
	if l.tail == r {
		l.tail = prev
	}
	r.next = nil
}

// first returns the earliest receive a message with tag satisfies, and
// its predecessor.
//
//tagalint:hotpath
func (l *recvList) first(tag int) (prev, r *Request) {
	for r = l.head; r != nil && !r.matches(tag); prev, r = r, r.next {
	}
	return prev, r
}

//tagalint:hotpath
func (l *msgList) push(m *inMsg) {
	if l.tail == nil {
		l.head = m
	} else {
		l.tail.next = m
	}
	l.tail = m
}

// unlink removes m, whose predecessor is prev (nil at the head).
//
//tagalint:hotpath
func (l *msgList) unlink(prev, m *inMsg) {
	if prev == nil {
		l.head = m.next
	} else {
		prev.next = m.next
	}
	if l.tail == m {
		l.tail = prev
	}
	m.next = nil
}

// first returns the earliest message receive r accepts, and its
// predecessor.
//
//tagalint:hotpath
func (l *msgList) first(r *Request) (prev, m *inMsg) {
	for m = l.head; m != nil && !r.matches(m.tag); prev, m = m, m.next {
	}
	return prev, m
}

// matches reports whether the receive's tag accepts a message carrying
// tag. The source is decided by the list the receive is in; collective
// rounds are kept apart from application traffic by their reserved tags
// alone (CollectiveTag).
//
//tagalint:hotpath
func (r *Request) matches(tag int) bool { return r.tag == tag }

// source returns the queues of src, or nil before first contact.
//
//tagalint:hotpath
func (mt *matcher) source(src Rank) *srcQueue {
	for i := range mt.srcs {
		if mt.srcs[i].src == src {
			return &mt.srcs[i]
		}
	}
	return nil
}

// addSource is the first-contact half of source, kept out of the hot
// path: it grows the slice, so earlier *srcQueue values go stale.
func (mt *matcher) addSource(src Rank) *srcQueue {
	mt.srcs = append(mt.srcs, srcQueue{src: src})
	return &mt.srcs[len(mt.srcs)-1]
}

// arrive pairs an incoming eager or RTS message with the earliest-posted
// receive of its source that it satisfies and returns that receive
// unlinked. With no match it queues m as unexpected and returns nil.
//
//tagalint:hotpath
func (mt *matcher) arrive(m *inMsg) *Request {
	q := mt.source(m.src)
	if q == nil {
		q = mt.addSource(m.src)
	} else if prev, r := q.posted.first(m.tag); r != nil {
		q.posted.unlink(prev, r)
		return r
	}
	q.unexp.push(m)
	return nil
}

// post pairs a new receive with the earliest-arrived unexpected message
// of its source that it accepts and returns that message unlinked. With
// no match it queues r and returns nil.
//
//tagalint:hotpath
func (mt *matcher) post(r *Request) *inMsg {
	q := mt.source(r.src)
	if q == nil {
		q = mt.addSource(r.src)
	} else if prev, m := q.unexp.first(r); m != nil {
		q.unexp.unlink(prev, m)
		return m
	}
	q.posted.push(r)
	return nil
}
