// Package critpath reconstructs the cross-rank happens-before DAG of one
// instrumented run from its trace events and extracts the critical path:
// the chain of spans and causal flow edges that ends at the instant the
// makespan is reached and, walked backwards, explains where every
// nanosecond of elapsed time went. Each segment of the path is attributed
// to exactly one blame class (DESIGN.md §10):
//
//	compute        task bodies, library call shells, posting overhead,
//	               polling passes — time a core spent doing work
//	fabric         message transit: Send-side flow start to delivery
//	link_contend   queueing at the links of a shaped-topology route:
//	               the backpressure share of transit (DESIGN.md §13)
//	notify_wait    waiting for a remote event — a GASPI notification
//	               sitting unobserved, or an MPI request completion park
//	mpi_lock_wait  serialization on the MPI THREAD_MULTIPLE library lock
//	retry          TAGASPI retry backoff after a queue-error failure
//	idle           scheduler idle: gaps with no span and no arriving
//	               edge to jump through, plus dependency-release slack
//
// The walk is a backward greedy last-finisher traversal. It starts at the
// (rank, time) pair achieving the makespan and repeatedly asks "what was
// this rank doing just before t, and if it was waiting, which causal edge
// ended the wait?". Flow edges ('s'/'f' pairs, see obs.Collector.Flow) let
// the cursor jump across ranks — from a delivery back to the send that
// caused it — so the path threads through the whole job, not one rank.
//
// Everything is a deterministic function of the event set: ties are broken
// by the canonical event order, and the report serializers emit fixed-order
// fields with fixed-precision numbers, so identical traces produce
// byte-identical reports.
package critpath

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// Class is one blame class of the critical-path attribution.
type Class uint8

// Blame classes, in canonical report order.
const (
	ClassCompute Class = iota
	ClassFabric
	ClassLinkContend
	ClassNotifyWait
	ClassMPILockWait
	ClassRetry
	ClassIdle
	numClasses
)

// String returns the canonical class name used in reports.
func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassFabric:
		return "fabric"
	case ClassLinkContend:
		return "link_contend"
	case ClassNotifyWait:
		return "notify_wait"
	case ClassMPILockWait:
		return "mpi_lock_wait"
	case ClassRetry:
		return "retry"
	case ClassIdle:
		return "idle"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Report is the critical-path blame attribution of one run.
type Report struct {
	Makespan   time.Duration          // end of the last event in the trace
	Ranks      int                    // distinct ranks seen
	Events     int                    // events analysed
	Segments   int                    // blame segments on the critical path
	Jumps      int                    // cross-rank jumps along the path
	Blame      [numClasses]ClassBlame // per-class attribution, canonical order
	Attributed time.Duration          // total time attributed (== Makespan when the walk reaches t=0)
}

// ClassBlame is one class's share of the critical path.
type ClassBlame struct {
	Class string        `json:"class"`
	Time  time.Duration `json:"time_ns"`
	Share float64       `json:"share"` // fraction of makespan, exact
}

// Share returns the attributed fraction of the makespan, in [0, 1].
func (r *Report) Share(c Class) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Blame[c].Time) / float64(r.Makespan)
}

// spanRef is one 'X' event indexed for the walk.
type spanRef struct {
	start, end time.Duration
	prio       int // covering-span priority; higher wins, see classify
	class      Class
	waitLike   bool // wait shells look for an arriving edge before blaming
}

// flowRef is one paired flow edge as seen from its finish endpoint.
type flowRef struct {
	fTs   time.Duration // finish timestamp (on the waiting rank)
	sTs   time.Duration // start timestamp (on the causing rank)
	sRank int
	class Class // blame class of the edge interval [sTs, fTs]
}

// classify maps a span event to its covering priority, blame class and
// wait-likeness. Spans that never represent rank CPU/wait state (fabric NIC
// activity) return prio < 0 and are excluded from the walk.
func classify(e obs.Event) (prio int, class Class, waitLike bool) {
	if e.Cat == obs.CatFabric {
		return -1, ClassCompute, false // NIC rows: attributed via flow edges
	}
	switch e.Name {
	case "mpi:lock_wait":
		return 5, ClassMPILockWait, false
	case "tagaspi:retry":
		return 4, ClassRetry, false
	case "notify:wait", "mpi:wait":
		return 3, ClassNotifyWait, true
	case "task:wait":
		return 2, ClassIdle, true
	}
	// Task bodies, mpi:isend/mpi:irecv shells, gaspi post spans, polling
	// passes: a core was doing work.
	return 1, ClassCompute, false
}

// edgeClass maps a flow edge name to the blame class of its interval.
func edgeClass(name string) Class {
	switch name {
	case "flow:msg":
		return ClassFabric
	case "flow:link":
		return ClassLinkContend // queueing at a shaped-topology link
	case "flow:notify":
		return ClassNotifyWait
	case "flow:lock":
		return ClassMPILockWait
	case "flow:coll":
		return ClassFabric // collective per-step chunk movement

	case "flow:task":
		return ClassIdle // dependency-release and scheduling slack
	}
	return ClassIdle
}

// maxSteps bounds the walk; a trace needing more segments than four times
// its event count indicates a cycle (which a well-formed trace cannot
// contain) and aborts instead of spinning.
func stepBudget(events int) int {
	n := 4*events + 64
	if n < 1024 {
		n = 1024
	}
	return n
}

// Analyze reconstructs the critical path from a canonically-ordered event
// set (obs.Tracer.Events or obs.EventsOf) and returns its blame report.
func Analyze(evs []obs.Event) (*Report, error) {
	if len(evs) == 0 {
		return nil, errors.New("critpath: empty trace")
	}

	// Index spans and flow finish-edges per rank; pair flow endpoints.
	type endRef struct {
		end  time.Duration
		prio int
	}
	type rankIdx struct {
		spans  []spanRef       // sorted by start (input order is canonical)
		maxEnd []time.Duration // prefix max of spans[k].end, bounds covering scans
		ends   []endRef        // all span ends with priority, sorted by end
		flows  []flowRef       // sorted by fTs
	}
	byRank := map[int]*rankIdx{}
	idx := func(r int) *rankIdx {
		ri := byRank[r]
		if ri == nil {
			ri = &rankIdx{}
			byRank[r] = ri
		}
		return ri
	}
	// Flow endpoints pair FIFO per id: the k-th 's' with the k-th 'f' in
	// canonical order (per-ordering-domain sequences make ids unique in
	// practice; FIFO pairing keeps a hash collision harmless).
	type sEnd struct {
		ts   time.Duration
		rank int
		name string
	}
	starts := map[int64][]sEnd{}

	var makespan time.Duration
	endRank := -1
	for _, e := range evs {
		end := e.Ts + e.Dur
		if end > makespan || (end == makespan && endRank < 0) {
			makespan, endRank = end, int(e.Rank)
		}
		switch e.Ph {
		case 'X':
			prio, class, wait := classify(e)
			if prio < 0 || e.Dur <= 0 {
				continue
			}
			idx(int(e.Rank)).spans = append(idx(int(e.Rank)).spans,
				spanRef{start: e.Ts, end: end, prio: prio, class: class, waitLike: wait})
		case 's':
			starts[e.Flow] = append(starts[e.Flow], sEnd{ts: e.Ts, rank: int(e.Rank), name: e.Name})
		}
	}
	for _, e := range evs {
		if e.Ph != 'f' {
			continue
		}
		q := starts[e.Flow]
		if len(q) == 0 {
			continue // dangling finish: unmatched edge, ignore
		}
		s := q[0]
		starts[e.Flow] = q[1:]
		idx(int(e.Rank)).flows = append(idx(int(e.Rank)).flows,
			flowRef{fTs: e.Ts, sTs: s.ts, sRank: s.rank, class: edgeClass(s.name)})
	}
	for _, ri := range byRank {
		sort.Slice(ri.spans, func(i, j int) bool { return ri.spans[i].start < ri.spans[j].start })
		sort.Slice(ri.flows, func(i, j int) bool { return ri.flows[i].fTs < ri.flows[j].fTs })
		ri.maxEnd = make([]time.Duration, len(ri.spans))
		ri.ends = make([]endRef, len(ri.spans))
		var m time.Duration
		for k, s := range ri.spans {
			if s.end > m {
				m = s.end
			}
			ri.maxEnd[k] = m
			ri.ends[k] = endRef{end: s.end, prio: s.prio}
		}
		sort.Slice(ri.ends, func(i, j int) bool {
			if ri.ends[i].end != ri.ends[j].end {
				return ri.ends[i].end < ri.ends[j].end
			}
			return ri.ends[i].prio < ri.ends[j].prio
		})
	}

	rep := &Report{Makespan: makespan, Ranks: len(byRank), Events: len(evs)}
	if makespan <= 0 {
		return nil, errors.New("critpath: trace has zero makespan")
	}

	// covering returns the highest-priority span s on rank with
	// s.start < t <= s.end (ties on priority: latest start, i.e. innermost).
	covering := func(ri *rankIdx, t time.Duration) (spanRef, bool) {
		best := spanRef{prio: -1}
		// spans are sorted by start; scan backwards from the last start < t,
		// stopping once no earlier span can still reach t (prefix max end).
		i := sort.Search(len(ri.spans), func(k int) bool { return ri.spans[k].start >= t })
		for k := i - 1; k >= 0; k-- {
			if ri.maxEnd[k] < t {
				break
			}
			s := ri.spans[k]
			if s.end >= t && s.prio > best.prio {
				best = s
			}
		}
		if best.prio < 0 {
			return spanRef{}, false
		}
		return best, true
	}
	// latestFlow returns the latest edge arriving on rank with
	// lo < fTs <= t and sTs < t (so jumping makes strict progress).
	latestFlow := func(ri *rankIdx, lo, t time.Duration) (flowRef, bool) {
		i := sort.Search(len(ri.flows), func(k int) bool { return ri.flows[k].fTs > t })
		for k := i - 1; k >= 0; k-- {
			f := ri.flows[k]
			if f.fTs <= lo {
				break
			}
			if f.sTs < t {
				return f, true
			}
		}
		return flowRef{}, false
	}
	// prevEnd returns the latest span end <= t on rank, or 0.
	prevEnd := func(ri *rankIdx, t time.Duration) time.Duration {
		i := sort.Search(len(ri.ends), func(k int) bool { return ri.ends[k].end > t })
		if i == 0 {
			return 0
		}
		return ri.ends[i-1].end
	}
	// hiEnd returns the latest end in (lo, t) of a span whose priority
	// exceeds p: the boundary where a more specific span (a lock wait
	// inside a library-call shell) surfaces under a blamed interval.
	hiEnd := func(ri *rankIdx, lo, t time.Duration, p int) (time.Duration, bool) {
		i := sort.Search(len(ri.ends), func(k int) bool { return ri.ends[k].end >= t })
		for k := i - 1; k >= 0; k-- {
			e := ri.ends[k]
			if e.end <= lo {
				break
			}
			if e.prio > p {
				return e.end, true
			}
		}
		return 0, false
	}

	blame := func(class Class, d time.Duration) {
		if d <= 0 {
			return
		}
		rep.Blame[class].Time += d
		rep.Attributed += d
		rep.Segments++
	}
	jump := func(from int, f flowRef, t time.Duration) (int, time.Duration) {
		blame(f.class, t-f.sTs)
		if f.sRank != from {
			rep.Jumps++
		}
		return f.sRank, f.sTs
	}

	rank, t := endRank, makespan
	budget := stepBudget(len(evs))
	for t > 0 {
		budget--
		if budget < 0 {
			return nil, fmt.Errorf("critpath: walk exceeded step budget at rank %d t %v", rank, t)
		}
		ri := byRank[rank]
		if ri == nil {
			blame(ClassIdle, t)
			break
		}
		s, ok := covering(ri, t)
		if !ok {
			// Gap: no span covers t. Jump through the latest edge arriving
			// in the gap if any; otherwise the rank was idle back to the
			// previous span end (or the start of time).
			lo := prevEnd(ri, t)
			if f, ok := latestFlow(ri, lo, t); ok {
				blame(ClassIdle, t-f.fTs)
				rank, t = jump(rank, f, min(t, f.fTs))
				continue
			}
			blame(ClassIdle, t-lo)
			t = lo
			continue
		}
		if s.waitLike {
			// A wait shell: the wait was ended by the latest causal edge
			// arriving inside it. Blame the post-arrival tail as the wait
			// class, the edge interval as the edge's class, and jump to
			// the cause — unless a higher-priority span (a progress-engine
			// lock wait delaying the delivery) ends even later inside the
			// shell; walk that first.
			f, fok := latestFlow(ri, s.start, t)
			e, eok := hiEnd(ri, s.start, t, s.prio)
			if eok && (!fok || e > f.fTs) {
				blame(s.class, t-e)
				t = e
				continue
			}
			if fok {
				blame(s.class, t-f.fTs)
				rank, t = jump(rank, f, min(t, f.fTs))
				continue
			}
		}
		// Blame back to the span start — or only to the latest boundary
		// where a higher-priority span (a lock wait under a call shell)
		// ends inside the interval; the next iteration picks that span up.
		if e, ok := hiEnd(ri, s.start, t, s.prio); ok {
			blame(s.class, t-e)
			t = e
			continue
		}
		blame(s.class, t-s.start)
		t = s.start
	}

	for c := Class(0); c < numClasses; c++ {
		rep.Blame[c].Class = c.String()
		rep.Blame[c].Share = float64(rep.Blame[c].Time) / float64(makespan)
	}
	return rep, nil
}

// FromTraceFile analyses a parsed trace file (obs.ParseTrace).
func FromTraceFile(tf *obs.TraceFile) (*Report, error) {
	evs, err := obs.EventsOf(tf)
	if err != nil {
		return nil, err
	}
	return Analyze(evs)
}

func min(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// WriteText renders the canonical human-readable blame report. Field order,
// widths and precision are fixed so identical traces yield identical bytes.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical-path blame  makespan=%s  ranks=%d  events=%d\n",
		canonDur(r.Makespan), r.Ranks, r.Events); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %18s %8s\n", "class", "time", "share")
	for c := Class(0); c < numClasses; c++ {
		b := r.Blame[c]
		fmt.Fprintf(w, "%-14s %18s %7.2f%%\n", b.Class, canonDur(b.Time), 100*b.Share)
	}
	_, err := fmt.Fprintf(w, "attributed %.2f%% of makespan in %d segments, %d cross-rank jumps\n",
		100*attributedShare(r), r.Segments, r.Jumps)
	return err
}

// WriteJSON renders the report as canonical JSON: fixed key order, integer
// nanoseconds, shares with fixed precision.
func (r *Report) WriteJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\"schema\":\"critpath/v1\",\"makespan_ns\":%d,\"ranks\":%d,\"events\":%d,\"segments\":%d,\"jumps\":%d,\"attributed_ns\":%d,\"blame\":[",
		r.Makespan.Nanoseconds(), r.Ranks, r.Events, r.Segments, r.Jumps, r.Attributed.Nanoseconds()); err != nil {
		return err
	}
	for c := Class(0); c < numClasses; c++ {
		b := r.Blame[c]
		sep := ","
		if c == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s{\"class\":\"%s\",\"time_ns\":%d,\"share\":%.6f}",
			sep, b.Class, b.Time.Nanoseconds(), b.Share); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

func attributedShare(r *Report) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Attributed) / float64(r.Makespan)
}

// canonDur renders a duration as microseconds with fixed nanosecond
// precision — the same shape as trace timestamps, immune to the unit
// switching of Duration.String.
func canonDur(d time.Duration) string {
	ns := d.Nanoseconds()
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03dus", neg, ns/1000, ns%1000)
}
