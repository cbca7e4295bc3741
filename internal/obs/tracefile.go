package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// TraceEvent is one parsed Chrome trace_event entry, as read back by the
// trace CLI. Timestamps and durations are microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is a parsed trace document.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// ParseTrace decodes a Chrome trace_event JSON document.
func ParseTrace(r io.Reader) (*TraceFile, error) {
	var t TraceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: trace parse: %w", err)
	}
	return &t, nil
}

// ReadTraceFile parses the trace document at path.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(f)
}

// validPhases are the event phases the tracer emits (including the 's'/'f'
// flow-edge phases) plus the begin/end and counter phases other trace_event
// producers use.
var validPhases = map[string]bool{
	"X": true, "i": true, "I": true, "M": true, "B": true, "E": true, "C": true,
	"s": true, "f": true,
}

// Validate checks structural well-formedness: at least one non-metadata
// event, known phases, non-empty names, non-negative timestamps and
// durations, non-negative pid/tid, and well-formed naming metadata. It
// returns the first violation found.
func (t *TraceFile) Validate() error {
	if len(t.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no events")
	}
	real := 0
	for i, e := range t.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("obs: event %d has no name", i)
		}
		if !validPhases[e.Ph] {
			return fmt.Errorf("obs: event %d (%q) has unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ts < 0 {
			return fmt.Errorf("obs: event %d (%q) has negative ts %g", i, e.Name, e.Ts)
		}
		if e.Dur < 0 {
			return fmt.Errorf("obs: event %d (%q) has negative dur %g", i, e.Name, e.Dur)
		}
		if e.Pid < 0 || e.Tid < 0 {
			return fmt.Errorf("obs: event %d (%q) has negative pid/tid %d/%d", i, e.Name, e.Pid, e.Tid)
		}
		if e.Ph == "M" {
			if e.Name != "process_name" && e.Name != "thread_name" {
				continue
			}
			if _, ok := e.Args["name"].(string); !ok {
				return fmt.Errorf("obs: metadata event %d (%q) lacks args.name", i, e.Name)
			}
			continue
		}
		real++
	}
	if real == 0 {
		return fmt.Errorf("obs: trace has only metadata events")
	}
	return nil
}

// DroppedEvents reports whether the trace embeds the tracer's
// "obs:events_dropped" warning, and the recorded drop count. A trace that
// passes Validate is still incomplete when it does: the tracer discarded
// events for out-of-range ranks.
func (t *TraceFile) DroppedEvents() (int64, bool) {
	for _, e := range t.TraceEvents {
		if e.Ph == "i" && e.Name == "obs:events_dropped" {
			n, _ := e.Args["v"].(float64)
			return int64(n), true
		}
	}
	return 0, false
}

// EventsOf converts a parsed trace document back to the tracer's native
// event representation, dropping the naming metadata (WriteEvents re-derives
// it). The tracer serializes timestamps as microseconds with exactly three
// decimals, so the float64 round trip through math.Round is exact for any
// virtual time below 2^52 nanoseconds (~52 days); re-serializing the result
// with WriteEvents reproduces the original document byte for byte.
func EventsOf(t *TraceFile) ([]Event, error) {
	evs := make([]Event, 0, len(t.TraceEvents))
	for i, e := range t.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if len(e.Ph) != 1 {
			return nil, fmt.Errorf("obs: event %d (%q) has unsupported phase %q", i, e.Name, e.Ph)
		}
		ev := Event{
			Name:  e.Name,
			Cat:   Cat(e.Cat),
			Rank:  int32(e.Pid),
			Track: Track(e.Tid),
			Ph:    e.Ph[0],
			Ts:    time.Duration(math.Round(e.Ts * 1e3)),
		}
		switch e.Ph {
		case "X":
			ev.Dur = time.Duration(math.Round(e.Dur * 1e3))
		case "i":
		case "s", "f":
			ev.Flow = e.ID
		default:
			return nil, fmt.Errorf("obs: event %d (%q) has unsupported phase %q", i, e.Name, e.Ph)
		}
		if v, ok := e.Args["v"].(float64); ok {
			ev.Arg = int64(v)
		}
		evs = append(evs, ev)
	}
	sortEvents(evs)
	return evs, nil
}

// TraceSummary aggregates a trace for the CLI.
type TraceSummary struct {
	Events   int // non-metadata events
	Spans    int
	Instants int
	Ranks    []int          // pids with non-metadata events, sorted
	ByCat    map[string]int // non-metadata events per category
	ByName   map[string]int // non-metadata events per name
	FirstUs  float64        // earliest non-metadata ts
	LastUs   float64        // latest ts (span ends included)
}

// Summarize aggregates the trace.
func (t *TraceFile) Summarize() TraceSummary {
	s := TraceSummary{ByCat: map[string]int{}, ByName: map[string]int{}}
	ranks := map[int]bool{}
	first := true
	for _, e := range t.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		s.Events++
		switch e.Ph {
		case "X", "B":
			s.Spans++
		case "i", "I":
			s.Instants++
		}
		ranks[e.Pid] = true
		s.ByCat[e.Cat]++
		s.ByName[e.Name]++
		end := e.Ts + e.Dur
		if first || e.Ts < s.FirstUs {
			s.FirstUs = e.Ts
		}
		if first || end > s.LastUs {
			s.LastUs = end
		}
		first = false
	}
	s.Ranks = make([]int, 0, len(ranks))
	for r := range ranks {
		s.Ranks = append(s.Ranks, r)
	}
	sort.Ints(s.Ranks)
	return s
}

// Write renders the summary as text.
func (s TraceSummary) Write(w io.Writer) {
	fmt.Fprintf(w, "events: %d (%d spans, %d instants) across %d rank(s) %v\n",
		s.Events, s.Spans, s.Instants, len(s.Ranks), s.Ranks)
	fmt.Fprintf(w, "time:   %.3fus .. %.3fus (%.3fus)\n", s.FirstUs, s.LastUs, s.LastUs-s.FirstUs)
	for _, cat := range sortedKeys(s.ByCat) {
		fmt.Fprintf(w, "cat %-8s %d\n", cat, s.ByCat[cat])
	}
	for _, name := range sortedKeys(s.ByName) {
		fmt.Fprintf(w, "  %-24s %d\n", name, s.ByName[name])
	}
}

// TopSpans returns the n longest spans, longest first; ties break by
// earlier timestamp then name.
func (t *TraceFile) TopSpans(n int) []TraceEvent {
	var spans []TraceEvent
	for _, e := range t.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur
		}
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Name < spans[j].Name
	})
	if n < len(spans) {
		spans = spans[:n]
	}
	return spans
}
