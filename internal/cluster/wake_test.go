package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/tasking"
)

var updateWakes = flag.Bool("update-wakes", false, "rewrite testdata/wake_sweep.txt from this build")

// wakeSweeps are the in-run wake sweeps, each over the sleeps d = from..to
// ns of rank 0 after the set-up barrier:
//   - notify: rank 1 awaits a notification that rank 0 posts after d, so
//     its arrival meets every instant of three grid periods (the 1µs or
//     5µs interval plus a pass of four 130ns queue drains) of rank 1's
//     dormant service;
//   - submit: rank 0 submits a compute task after d, which lands at every
//     instant of a grid period of its own dormant service, the pass
//     included; with one core the task waits for the pass it lands in;
//   - race: rank 0 sets a notification nobody awaits after d, which wakes
//     rank 1's dormant service at every instant of a grid period. Rank
//     1's main has a compute task wait for an event that it fulfils at a
//     grid wake, from a Sleep drawn 40ns before it: if the notification
//     came in those 40ns, the service's wait, drawn a period earlier, must
//     still take the one core first;
//   - iwait: rank 0 submits after d a task that posts an Irecv and binds it
//     with TAMPI's Iwait, which lands at every instant of three grid
//     periods (the 1µs or 5µs interval; an idle TAMPI pass costs nothing)
//     of its own dormant TAMPI service. Rank 1 sends the matching message
//     at once, so the request is complete by the first pass that sees it.
var wakeSweeps = []struct {
	kind     string
	poll     time.Duration
	cores    int
	from, to time.Duration
}{
	{"notify", time.Microsecond, 2, 20000, 24600},
	{"notify", 5 * time.Microsecond, 2, 20000, 36600},
	{"submit", time.Microsecond, 2, 20000, 21600},
	{"submit", time.Microsecond, 1, 20000, 21600},
	{"race", time.Microsecond, 1, 20000, 21600},
	{"iwait", time.Microsecond, 2, 20000, 23000},
	{"iwait", time.Microsecond, 1, 20000, 23000},
	{"iwait", 5 * time.Microsecond, 2, 20000, 35000},
	{"iwait", 5 * time.Microsecond, 1, 20000, 35000},
}

// wakePoint runs one point of a wake sweep on two single-rank nodes with
// TAGASPI (TAMPI for an iwait sweep) and no MPI jitter. It returns when
// the awaited work retired — the instant of the notification wait, the
// race's compute task or the Iwait's task, or the submitted task's less d
// — and the job's elapsed time (−1 for a race, where rank 0 ends with d),
// each rank's pass and idle-pass counts, and how many wakes the ranks'
// runtimes could not decide.
func wakePoint(kind string, poll time.Duration, cores int, d time.Duration) (times [2]time.Duration, counts string, undecided int64) {
	prof := fabric.ProfileOmniPath()
	prof.MPIJitter = 0
	var retire time.Duration
	iwait := kind == "iwait"
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: cores, Profile: prof,
		WithTasking: true, WithTAMPI: iwait, WithTAGASPI: !iwait,
		TAMPIPoll: poll, TAGASPIPoll: poll,
	}, func(env *Env) {
		if _, err := env.GASPI.SegmentCreate(0, 64); err != nil {
			panic(err)
		}
		env.MPI.Barrier()
		switch {
		case kind == "notify" && env.Rank == 1:
			var v int64
			env.RT.Submit(func(tk *tasking.Task) { env.TAGASPI.NotifyIwait(tk, 0, 7, &v) })
			env.RT.TaskWait()
			retire = env.Clk.Now()
		case kind == "notify":
			env.Clk.Sleep(d)
			env.RT.Submit(func(tk *tasking.Task) {
				if err := env.TAGASPI.Notify(tk, 1, 0, 7, 1, 0); err != nil {
					panic(err)
				}
			})
		case kind == "submit" && env.Rank == 0:
			env.Clk.Sleep(d)
			env.RT.Submit(func(tk *tasking.Task) { tk.Compute(700) })
			env.RT.TaskWait()
			retire = env.Clk.Now() - d
		case kind == "race" && env.Rank == 1:
			var ev *tasking.EventCounter
			env.RT.Submit(func(tk *tasking.Task) { tk.Compute(700) },
				tasking.WithOnReady(func(tk *tasking.Task) { ev = tk.Events(); ev.Increase(1) }))
			// The grid of a lone idle service (TestIdlePollGrid), at its
			// first wake 23.5µs after the sweep starts.
			period := poll + queues*(prof.RDMAOpOverhead/2)
			at := env.Clk.Now() + 23500
			w := DispatchOverhead + (at-DispatchOverhead+period-1)/period*period
			env.Clk.Sleep(w - 40 - env.Clk.Now())
			env.Clk.Sleep(40)
			ev.Decrease(1)
			env.RT.TaskWait()
			retire = env.Clk.Now()
		case kind == "race":
			env.Clk.Sleep(d)
			env.RT.Submit(func(tk *tasking.Task) {
				if err := env.TAGASPI.Notify(tk, 1, 0, 9, 1, 0); err != nil {
					panic(err)
				}
			})
		case iwait && env.Rank == 0:
			buf := make([]byte, 8)
			env.Clk.Sleep(d)
			env.RT.Submit(func(tk *tasking.Task) { env.TAMPI.Iwait(tk, env.MPI.Irecv(buf, 1, 7)) })
			env.RT.TaskWait()
			retire = env.Clk.Now()
		case iwait:
			env.MPI.Send(make([]byte, 8), 0, 7)
		}
	})
	times = [2]time.Duration{retire, res.Elapsed}
	if kind == "race" {
		times[1] = -1
	}
	var b strings.Builder
	for _, s := range res.Snapshots {
		if lib := s.Component; lib == "tagaspi" || lib == "tampi" {
			fmt.Fprintf(&b, " %g %g", sample(s, lib+"_passes"), sample(s, lib+"_idle_passes"))
		}
	}
	for _, st := range res.Tasking {
		undecided += st.UndecidedWakes
	}
	return times, b.String(), undecided
}

// TestWakeTieSweep pins what a dormant polling service does when an input
// wakes it inside a run, against testdata generated while services polled
// through every idle wait: the retire instant, the elapsed time and the
// pass counts of every point must be those of the polling run. A wake must
// re-enter the grid at the step the skipped passes had reached, also when
// that step falls at the wake's own instant, and arm it with the key it
// would have drawn. The file holds one line per run of sleeps with the same
// result: "kind poll cores first-last retire elapsed passes0 idle0 passes1
// idle1" ("-" for a race's elapsed time). A time marked "+" is the first
// sleep's, and it rises with the sleep across the run.
func TestWakeTieSweep(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweeps 62,000 jobs; it checks modelled values, which the plain test pass covers")
	}
	path := filepath.Join("testdata", "wake_sweep.txt")
	var got []string
	for _, sw := range wakeSweeps {
		var (
			first  time.Duration    // the run's first sleep
			at     [2]time.Duration // its retire instant and elapsed time
			rises  [2]bool          // which of them rise with the sleep
			counts string
		)
		flush := func(last time.Duration) {
			line := fmt.Sprintf("%s %v %d %d-%d", sw.kind, sw.poll, sw.cores, first, last)
			for i, v := range at {
				if v < 0 {
					line += " -"
					continue
				}
				line += fmt.Sprintf(" %d", v)
				if rises[i] {
					line += "+"
				}
			}
			got = append(got, line+counts)
		}
		for d := sw.from; d <= sw.to; d++ {
			times, c, undecided := wakePoint(sw.kind, sw.poll, sw.cores, d)
			if undecided != 0 {
				t.Errorf("%s %v %d %d: a wake was undecided", sw.kind, sw.poll, sw.cores, d)
			}
			if d > sw.from && c == counts {
				n, same, up := d-first, true, rises
				for i, v := range times {
					up[i] = v == at[i]+n && (n == 1 || rises[i])
					same = same && (up[i] || v == at[i] && (n == 1 || !rises[i]))
				}
				if same {
					rises = up
					continue
				}
			}
			if d > sw.from {
				flush(d - 1)
			}
			first, at, rises, counts = d, times, [2]bool{}, c
		}
		flush(sw.to)
	}
	if *updateWakes {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(got, "\n") + "\n"; string(data) != want {
		t.Errorf("wake sweep differs from %s:\n got:\n%s\nwant:\n%s", path, want, data)
	}
}
