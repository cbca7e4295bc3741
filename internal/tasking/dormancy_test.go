package tasking

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// dormantRun is what one run of a lone polling service observed: the
// instant Shutdown returned, the service's pass counts, how many passes
// its poll function really started, the run's trace and metrics, and how
// many exits the runtime had to guess.
type dormantRun struct {
	exit          time.Duration
	passes, idle  int64
	polls         int
	trace, counts string
	undecided     int64
}

// runLone runs a lone service on one core with a dispatch overhead: each
// pass costs cost and retires nothing. If dormant is set its library
// always reports nothing to poll; if not it has no predicate, and the
// service polls through every wait. The main sleeps before, mid and after
// and shuts the runtime down.
func runLone(interval, cost, before, mid, after time.Duration, dormant bool) dormantRun {
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 1, DispatchOverhead: 250})
	col := obs.NewCollector(1)
	rt.SetRecorder(col, 0)
	var r dormantRun
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		var s *Service
		done := func() { s.Done(0) }
		var quiet func() bool
		if dormant {
			quiet = func() bool { return true }
		}
		s = rt.NewService("lone", interval, quiet, func(int) func() { return done })
		s.Start(func() {
			r.polls++
			s.After(cost, done)
		})
		clk.Sleep(before)
		clk.Sleep(mid)
		clk.Sleep(after)
		rt.Shutdown()
		r.exit = clk.Now()
		r.passes, r.idle = s.Passes(), s.IdlePasses()
		r.undecided = rt.Stats().UndecidedWakes
	})
	wg.Wait()
	var tr, ms bytes.Buffer
	if err := col.Tracer.Write(&tr); err != nil {
		panic(err)
	}
	col.Metrics.Write(&ms)
	r.trace, r.counts = tr.String(), ms.String()
	return r
}

// TestDormantServiceMatchesPolling runs a lone service whose library
// always has nothing to poll, which goes dormant after its first pass,
// against one without a predicate, which polls, and requires the two runs
// to agree on everything they model: the instant Shutdown returns, the
// pass counts, the trace and the metrics. Shutdown comes at every instant
// of three polling periods, so it falls on grid wakes too, where the exit
// depends on whether the grid wake or the main's own wake fired first. The
// main's last wake is drawn at before+mid: as the first pass starts, as it
// ends and the service sleeps, or after a skipped pass would have drawn
// its wake; the passes end at 380, 1510, 2640, 3770, 4900 ns (cost 130) or
// at 250, 1250, ... (cost 0). A draw at a skipped pass's own start or end
// is the one exit rouse cannot order (TestUndecidedExitCounted).
func TestDormantServiceMatchesPolling(t *testing.T) {
	skipped := 0
	for _, c := range []struct{ interval, cost, before, mid time.Duration }{
		{1000, 0, 0, 0},
		{1000, 130, 2600, 0},
		{3000, 520, 777, 0},
		{1000, 130, 380, 0},     // the main draws as the service sleeps
		{1000, 0, 250, 0},       // ... after a pass of no cost
		{1000, 130, 250, 0},     // ... as the first pass starts
		{1000, 130, 2600, 500},  // ... after a skipped pass's end
		{1000, 130, 2600, 1500}, // ... and after the next one's
		{1000, 0, 2250, 1700},
	} {
		period := c.interval + c.cost
		step := time.Duration(1)
		if raceEnabled {
			step = 31 // the race detector looks for races, not for ties
		}
		for after := time.Duration(0); after <= 3*period; after += step {
			want := runLone(c.interval, c.cost, c.before, c.mid, after, false)
			got := runLone(c.interval, c.cost, c.before, c.mid, after, true)
			id := fmt.Sprintf("%+v, after %v", c, after)
			if got.undecided != 0 {
				t.Fatalf("%s: the exit was guessed", id)
			}
			if got.exit != want.exit || got.passes != want.passes || got.idle != want.idle {
				t.Fatalf("%s: exit %v after %d passes (%d idle), want %v after %d (%d)",
					id, got.exit, got.passes, got.idle, want.exit, want.passes, want.idle)
			}
			if got.trace != want.trace || got.counts != want.counts {
				t.Fatalf("%s: the trace or metrics differ from the polling run's", id)
			}
			if got.polls != want.polls {
				skipped += want.polls - got.polls
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no pass was skipped: the service never went dormant")
	}
	t.Logf("%d passes skipped", skipped)
}

// TestUndecidedExitCounted builds the one exit rouse cannot order: the
// rank main resumes at a grid wake from a Sleep of exactly one interval,
// drawn at the instant the skipped pass before that wake ended. Both
// sequence numbers were drawn at that instant; the runtime guesses, and
// the guess is counted, never silent.
func TestUndecidedExitCounted(t *testing.T) {
	const interval, cost = 1000, 130
	clk := vclock.NewVirtual()
	rt := New(clk, Config{Cores: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		var s *Service
		done := func() { s.Done(0) }
		s = rt.NewService("lone", interval, func() bool { return true }, func(int) func() { return done })
		s.Start(func() { s.After(cost, done) })
		// The first pass, 0 to 130, sleeps (D = 130), so its grid is
		// w1 = 1130, 2260, 3390, ...
		clk.Sleep(2260 + cost) // to the end of the skipped pass at 2260
		clk.Sleep(interval)    // to the wake at 3390
		rt.Shutdown()
	})
	wg.Wait()
	if n := rt.Stats().UndecidedWakes; n != 1 {
		t.Fatalf("%d exits counted as guessed, want 1", n)
	}
}
