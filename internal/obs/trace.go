package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded trace event. Spans carry a duration; instants do
// not. Flow events ('s' start / 'f' finish) carry the flow id binding the
// two endpoints of one causal edge. Timestamps are virtual-clock readings.
type Event struct {
	Name  string
	Cat   Cat
	Rank  int32
	Track Track
	Ph    byte // 'X' (complete span), 'i' (instant), 's'/'f' (flow edge)
	Ts    time.Duration
	Dur   time.Duration
	Arg   int64
	Flow  int64 // flow edge id ('s'/'f' events only)
}

// Tracer records events into per-rank buffers. Recording takes one short
// host-mutex section per event (the buffers are sharded by rank, so ranks
// never contend with each other); serialization sorts events by virtual
// timestamp, which makes the output independent of host-scheduler
// interleaving and therefore deterministic across identical runs.
type Tracer struct {
	shards  []tshard
	dropped atomic.Int64 // events discarded for out-of-range ranks
	clamped atomic.Int64 // spans whose end preceded their start
}

type tshard struct {
	mu     sync.Mutex
	events []Event
	_      [32]byte // padding: keep neighbouring shards off one cache line
}

// NewTracer returns a tracer accepting events for ranks [0, ranks).
// Events for out-of-range ranks are dropped rather than crashing the
// simulation.
func NewTracer(ranks int) *Tracer {
	if ranks <= 0 {
		ranks = 1
	}
	return &Tracer{shards: make([]tshard, ranks)}
}

// Span records a completed interval. A span whose end precedes its start is
// clamped to zero duration at start; the clamp is counted in the
// obs_span_clamped counter and flagged with an "obs:span_clamped" warning
// instant (arg: the negative duration in nanoseconds) so clock bugs are
// visible in the trace instead of silently masked.
func (t *Tracer) Span(rank int, track Track, cat Cat, name string, start, end time.Duration, arg int64) {
	if end < start {
		t.clamped.Add(1)
		t.append(rank, Event{Name: "obs:span_clamped", Cat: CatObs, Rank: int32(rank),
			Track: track, Ph: 'i', Ts: start, Arg: int64(end - start)})
		end = start
	}
	t.append(rank, Event{Name: name, Cat: cat, Rank: int32(rank), Track: track,
		Ph: 'X', Ts: start, Dur: end - start, Arg: arg})
}

// Instant records a point event.
func (t *Tracer) Instant(rank int, track Track, cat Cat, name string, ts time.Duration, arg int64) {
	t.append(rank, Event{Name: name, Cat: cat, Rank: int32(rank), Track: track,
		Ph: 'i', Ts: ts, Arg: arg})
}

// Flow records one endpoint of a causal flow edge: ph 's' starts the edge,
// ph 'f' finishes it, and the two endpoints bind through id.
//
//tagalint:hotpath
func (t *Tracer) Flow(rank int, track Track, cat Cat, name string, ph byte, ts time.Duration, id int64) {
	t.append(rank, Event{Name: name, Cat: cat, Rank: int32(rank), Track: track,
		Ph: ph, Ts: ts, Flow: id})
}

//tagalint:hotpath
func (t *Tracer) append(rank int, e Event) {
	if rank < 0 || rank >= len(t.shards) {
		t.dropped.Add(1)
		return
	}
	s := &t.shards[rank]
	s.mu.Lock()
	//lint:ignore hotalloc per-shard event buffers amortise growth over the run; the steady state appends in place
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Snapshot surfaces the tracer's health counters.
func (t *Tracer) Snapshot() Snapshot {
	return Snapshot{Component: "obs.tracer", Rank: -1, Samples: []Sample{
		{Name: "obs_events_dropped", Value: float64(t.dropped.Load())},
		{Name: "obs_span_clamped", Value: float64(t.clamped.Load())},
	}}
}

// Reset clears the health counters and discards all recorded events,
// retaining the shard buffers' capacity so the next recording round starts
// empty without reallocating.
func (t *Tracer) Reset() {
	t.dropped.Store(0)
	t.clamped.Store(0)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.events = s.events[:0]
		s.mu.Unlock()
	}
}

// Len reports the total number of recorded events.
func (t *Tracer) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Events returns a copy of all recorded events in canonical order. It
// holds every shard's lock while it sizes and fills the copy, so the result
// is one allocation of exactly the recorded events.
func (t *Tracer) Events() []Event {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].events)
	}
	all := make([]Event, 0, n)
	for i := range t.shards {
		all = append(all, t.shards[i].events...)
		t.shards[i].mu.Unlock()
	}
	sortEvents(all)
	return all
}

// sortEvents orders events canonically: by timestamp, then rank, track and
// the remaining fields. The total order over all fields makes serialized
// traces byte-identical across runs that recorded the same event set,
// regardless of goroutine interleaving during recording.
func sortEvents(evs []Event) { slices.SortFunc(evs, compareEvents) }

func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.Ts, b.Ts); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Track, b.Track); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Arg, b.Arg); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Flow, b.Flow); c != 0 {
		return c
	}
	return cmp.Compare(a.Ph, b.Ph)
}

// Write serializes the trace as Chrome trace_event JSON (the "JSON Array
// with metadata" flavour), loadable in chrome://tracing and Perfetto.
// Timestamps and durations are microseconds with nanosecond precision.
// The event stream is sorted canonically and preceded by process/thread
// naming metadata, so identical simulator runs produce identical bytes.
// When events were dropped for out-of-range ranks, an "obs:events_dropped"
// warning instant (arg: the drop count) is embedded so file-level checks
// (cmd/trace -check) can fail on incomplete traces.
func (t *Tracer) Write(w io.Writer) error {
	evs := t.Events()
	if d := t.dropped.Load(); d > 0 {
		evs = append(evs, Event{Name: "obs:events_dropped", Cat: CatObs,
			Rank: 0, Track: TrackMain, Ph: 'i', Ts: 0, Arg: d})
		sortEvents(evs)
	}
	return WriteEvents(w, evs)
}

// WriteEvents serializes an already-canonically-ordered event set as Chrome
// trace_event JSON, deriving the process/thread naming metadata from the
// events themselves. Tracer.Write delegates here; exposing it separately
// lets parsed traces be re-serialized byte-identically (see EventsOf).
func WriteEvents(w io.Writer, evs []Event) error {
	// Collect the (rank, track) pairs in use for naming metadata.
	type rt struct {
		rank  int32
		track Track
	}
	ranks := map[int32]bool{}
	tracks := map[rt]bool{}
	for _, e := range evs {
		ranks[e.Rank] = true
		tracks[rt{e.Rank, e.Track}] = true
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, int(r))
	}
	sort.Ints(rankList)
	trackList := make([]rt, 0, len(tracks))
	for k := range tracks {
		trackList = append(trackList, k)
	}
	sort.Slice(trackList, func(i, j int) bool {
		if trackList[i].rank != trackList[j].rank {
			return trackList[i].rank < trackList[j].rank
		}
		return trackList[i].track < trackList[j].track
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	sep := func() string {
		if first {
			first = false
			return ""
		}
		return ",\n"
	}
	for _, r := range rankList {
		fmt.Fprintf(bw, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"rank %d\"}}", sep(), r, r)
	}
	for _, k := range trackList {
		fmt.Fprintf(bw, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
			sep(), k.rank, k.track, jsonString(TrackName(k.track)))
	}
	for _, e := range evs {
		switch e.Ph {
		case 'X':
			fmt.Fprintf(bw, "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"v\":%d}}",
				sep(), jsonString(e.Name), e.Cat, usec(e.Ts), usec(e.Dur), e.Rank, e.Track, e.Arg)
		case 'i':
			fmt.Fprintf(bw, "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"v\":%d}}",
				sep(), jsonString(e.Name), e.Cat, usec(e.Ts), e.Rank, e.Track, e.Arg)
		case 's':
			fmt.Fprintf(bw, "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}",
				sep(), jsonString(e.Name), e.Cat, e.Flow, usec(e.Ts), e.Rank, e.Track)
		case 'f':
			fmt.Fprintf(bw, "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}",
				sep(), jsonString(e.Name), e.Cat, e.Flow, usec(e.Ts), e.Rank, e.Track)
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile serializes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usec renders a duration as microseconds with nanosecond precision,
// without trailing-zero jitter (fixed three decimals).
func usec(d time.Duration) string {
	ns := d.Nanoseconds()
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jsonString quotes s as a JSON string (names may carry user task labels).
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "\"?\""
	}
	return string(b)
}
