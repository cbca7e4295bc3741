package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fillTracer records a small fixed event set. Order of calls is
// deliberately scrambled relative to timestamps.
func fillTracer(t *Tracer) {
	t.Instant(1, TrackNotify, CatNotify, "notify:fulfill", 900*time.Nanosecond, 7)
	t.Span(0, TaskTrack(0), CatTask, "compute", 100*time.Nanosecond, 600*time.Nanosecond, 1)
	t.Span(1, QueueTrack(2), CatGaspi, "gaspi:write_notify", 150*time.Nanosecond, 400*time.Nanosecond, 4096)
	t.Instant(0, TrackMain, CatTask, "task:create", 50*time.Nanosecond, 1)
	t.Span(0, TrackMPI, CatMPI, "mpi:isend", 200*time.Nanosecond, 350*time.Nanosecond, 64)
	t.Instant(1, TrackFabricRx, CatFabric, "fabric:deliver", 700*time.Nanosecond, 4096)
}

// TestTracerDeterministicSerialization records the same event set in two
// different insertion orders — including from concurrent goroutines — and
// requires byte-identical output: the property that makes traces of
// identical virtual-time runs comparable.
func TestTracerDeterministicSerialization(t *testing.T) {
	a := NewTracer(2)
	fillTracer(a)

	// Same events, recorded concurrently per rank in reverse order.
	b := NewTracer(2)
	var wg sync.WaitGroup
	record := [](func()){
		func() { b.Instant(1, TrackFabricRx, CatFabric, "fabric:deliver", 700*time.Nanosecond, 4096) },
		func() { b.Span(0, TrackMPI, CatMPI, "mpi:isend", 200*time.Nanosecond, 350*time.Nanosecond, 64) },
		func() { b.Instant(0, TrackMain, CatTask, "task:create", 50*time.Nanosecond, 1) },
		func() {
			b.Span(1, QueueTrack(2), CatGaspi, "gaspi:write_notify", 150*time.Nanosecond, 400*time.Nanosecond, 4096)
		},
		func() { b.Span(0, TaskTrack(0), CatTask, "compute", 100*time.Nanosecond, 600*time.Nanosecond, 1) },
		func() { b.Instant(1, TrackNotify, CatNotify, "notify:fulfill", 900*time.Nanosecond, 7) },
	}
	for _, f := range record {
		f := f
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()

	var bufA, bufB bytes.Buffer
	if err := a.Write(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("serialized traces differ:\n--- a ---\n%s\n--- b ---\n%s", bufA.String(), bufB.String())
	}
}

// TestTracerRoundTrip checks that the validator and summarizer accept the
// tracer's own output — the contract cmd/trace -check relies on.
func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer(2)
	fillTracer(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse own output: %v", err)
	}
	if err := tf.Validate(); err != nil {
		t.Fatalf("validate own output: %v", err)
	}
	s := tf.Summarize()
	if s.Events != 6 || s.Spans != 3 || s.Instants != 3 {
		t.Errorf("summary = %d events (%d spans, %d instants), want 6 (3, 3)", s.Events, s.Spans, s.Instants)
	}
	if len(s.Ranks) != 2 || s.Ranks[0] != 0 || s.Ranks[1] != 1 {
		t.Errorf("ranks = %v, want [0 1]", s.Ranks)
	}
	if s.ByCat["task"] != 2 || s.ByCat["gaspi"] != 1 {
		t.Errorf("by-cat = %v", s.ByCat)
	}
	top := tf.TopSpans(1)
	if len(top) != 1 || top[0].Name != "compute" {
		t.Errorf("top span = %+v, want the 500ns compute span", top)
	}
}

// TestTracerGolden pins the exact serialized bytes of the fixed event set
// against testdata/fixed.trace.json, so accidental format drift (which
// would silently break stored traces and their consumers) fails loudly.
// Regenerate with: OBS_UPDATE_GOLDEN=1 go test ./internal/obs -run TestTracerGolden
func TestTracerGolden(t *testing.T) {
	tr := NewTracer(2)
	fillTracer(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fixed.trace.json")
	if updateGolden() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with OBS_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized trace drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
	// And the golden file itself must satisfy the validator, as any
	// simulator-written trace must.
	tf, err := ReadTraceFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Validate(); err != nil {
		t.Fatalf("golden trace invalid: %v", err)
	}
}

func updateGolden() bool { return os.Getenv("OBS_UPDATE_GOLDEN") != "" }

func TestTracerDropsOutOfRangeRanks(t *testing.T) {
	tr := NewTracer(1)
	tr.Span(5, TrackMain, CatTask, "x", 0, 1, 0)
	tr.Instant(-1, TrackMain, CatTask, "y", 0, 0)
	tr.Flow(7, TrackMain, CatTask, "z", 's', 0, 1)
	if tr.Len() != 0 {
		t.Fatalf("out-of-range events recorded: %d", tr.Len())
	}
	snap := tr.Snapshot()
	if snap.Component != "obs.tracer" || len(snap.Samples) != 2 ||
		snap.Samples[0].Name != "obs_events_dropped" || snap.Samples[0].Value != 3 {
		t.Fatalf("Snapshot() = %+v, want obs_events_dropped=3", snap)
	}
	// A written trace embeds the drop warning so file-level checks can fail.
	tr.Instant(0, TrackMain, CatTask, "ok", 0, 0) // keep the trace non-empty
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n, dropped := tf.DroppedEvents(); !dropped || n != 3 {
		t.Fatalf("DroppedEvents() = %d, %v, want 3, true:\n%s", n, dropped, buf.String())
	}
	tr.Reset()
	if snap := tr.Snapshot(); snap.Samples[0].Value != 0 || snap.Samples[1].Value != 0 || tr.Len() != 0 {
		t.Fatalf("Reset() left %+v, len=%d", snap.Samples, tr.Len())
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := NewTracer(1)
	tr.Span(0, TrackMain, CatTask, "x", 100, 50, 0)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want a clamp warning plus the clamped span", evs)
	}
	warn, span := evs[0], evs[1]
	if span.Name == "obs:span_clamped" {
		warn, span = span, warn
	}
	if span.Dur != 0 || span.Ts != 100 {
		t.Fatalf("span = %+v, want zero duration at ts 100", span)
	}
	if warn.Name != "obs:span_clamped" || warn.Ph != 'i' || warn.Ts != 100 || warn.Arg != -50 {
		t.Fatalf("warning = %+v, want obs:span_clamped instant at ts 100 with arg -50", warn)
	}
	if snap := tr.Snapshot(); snap.Samples[1].Name != "obs_span_clamped" || snap.Samples[1].Value != 1 {
		t.Fatalf("Snapshot() = %+v, want obs_span_clamped=1", snap)
	}
}

// TestFlowRoundTrip is the byte-identity gate for traces carrying flow
// events: write → parse → EventsOf → WriteEvents must reproduce the
// original document exactly (the contract that lets stored traces be
// re-processed by critpath without drift).
func TestFlowRoundTrip(t *testing.T) {
	tr := NewTracer(2)
	fillTracer(tr)
	tr.Flow(0, TrackFabricTx, CatFabric, "flow:msg", 's', 210*time.Nanosecond, 9001)
	tr.Flow(1, TrackFabricRx, CatFabric, "flow:msg", 'f', 700*time.Nanosecond, 9001)
	tr.Flow(1, TrackNotify, CatNotify, "flow:notify", 's', 705*time.Nanosecond, 42)
	tr.Flow(1, TrackNotify, CatNotify, "flow:notify", 'f', 900*time.Nanosecond, 42)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse own output: %v", err)
	}
	if err := tf.Validate(); err != nil {
		t.Fatalf("validate own output: %v", err)
	}
	evs, err := EventsOf(tf)
	if err != nil {
		t.Fatalf("EventsOf: %v", err)
	}
	if len(evs) != 10 {
		t.Fatalf("EventsOf returned %d events, want 10", len(evs))
	}
	var buf2 bytes.Buffer
	if err := WriteEvents(&buf2, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-serialized trace differs:\n--- original ---\n%s\n--- round-trip ---\n%s", buf.String(), buf2.String())
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", `{"traceEvents":[]}`, "no events"},
		{"unnamed", `{"traceEvents":[{"name":"","ph":"X","ts":1,"pid":0,"tid":0}]}`, "no name"},
		{"badphase", `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":0,"tid":0}]}`, "unknown phase"},
		{"negts", `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"pid":0,"tid":0}]}`, "negative ts"},
		{"negpid", `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":-1,"tid":0}]}`, "negative pid"},
		{"metaonly", `{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"r"}}]}`, "only metadata"},
		{"badmeta", `{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0}]}`, "args.name"},
	}
	for _, c := range cases {
		tf, err := ParseTrace(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		err = tf.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestTrackNames(t *testing.T) {
	cases := map[Track]string{
		TrackMain:     "main",
		TaskTrack(0):  "core 0",
		TaskTrack(3):  "core 3",
		TrackMPI:      "mpi",
		TrackNotify:   "notify",
		QueueTrack(1): "gaspi q1",
		TrackFabricTx: "fabric tx",
		TrackFabricRx: "fabric rx",
	}
	for tr, want := range cases {
		if got := TrackName(tr); got != want {
			t.Errorf("TrackName(%d) = %q, want %q", tr, got, want)
		}
	}
	if got := TrackName(PollTrack("tampi-poll")); !strings.HasPrefix(got, "poll ") {
		t.Errorf("poll track name = %q", got)
	}
	if PollTrack("x") != PollTrack("x") {
		t.Error("PollTrack not stable")
	}
}
