package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

var updateExits = flag.Bool("update-exits", false, "rewrite testdata/exit_sweep.txt from this build")

// exitSweeps are the exit-instant sweeps: one library, one polling period,
// and the sleeps d = 0..max ns of rank 1 before it returns from its main.
// Each range covers more than three grid periods (the period plus the
// pass's own cost), so every offset of a rank's last barrier message
// against its peer's polling grid is met, ties included.
var exitSweeps = []struct {
	lib  string
	poll time.Duration
	max  time.Duration
}{
	{"tampi", time.Microsecond, 4000},
	{"tagaspi", time.Microsecond, 4000},
	{"tampi", 5 * time.Microsecond, 18000},
	{"tagaspi", 5 * time.Microsecond, 18000},
}

// exitPoint runs the sweep job: two single-rank nodes with one polling
// service each and no task, rank 1 sleeping d before its main returns. It
// returns the job's elapsed time and each rank's pass and idle-pass counts,
// and how many exits the ranks' runtimes had to guess.
func exitPoint(lib string, poll, d time.Duration) (string, int64) {
	prof := fabric.ProfileOmniPath()
	prof.MPIJitter = 0
	res := Run(Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 2, Profile: prof,
		WithTasking: true, WithTAMPI: lib == "tampi", WithTAGASPI: lib == "tagaspi",
		TAMPIPoll: poll, TAGASPIPoll: poll,
	}, func(env *Env) {
		if env.Rank == 1 {
			env.Clk.Sleep(d)
		}
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%d", res.Elapsed)
	for _, s := range res.Snapshots {
		if s.Component == lib {
			fmt.Fprintf(&b, " %g %g", sample(s, lib+"_passes"), sample(s, lib+"_idle_passes"))
		}
	}
	var undecided int64
	for _, st := range res.Tasking {
		undecided += st.UndecidedWakes
	}
	return b.String(), undecided
}

func sample(s obs.Snapshot, name string) float64 {
	for _, smp := range s.Samples {
		if smp.Name == name {
			return smp.Value
		}
	}
	return -1
}

// TestExitTieSweep pins the instant a finished rank's polling service
// exits, and the passes it makes on the way, against testdata generated
// while services still polled through the closing barrier: a dormant
// service must wake at exactly the wake that would have seen Shutdown,
// also when that wake falls at the instant Shutdown's caller resumed. The
// file holds one line per run of sleeps with the same result:
// "lib poll first-last elapsed passes0 idle0 passes1 idle1".
func TestExitTieSweep(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweeps 44,000 jobs; it checks modelled values, which the plain test pass covers")
	}
	path := filepath.Join("testdata", "exit_sweep.txt")
	var got []string
	for _, sw := range exitSweeps {
		first, prev := time.Duration(0), ""
		flush := func(last time.Duration) {
			got = append(got, fmt.Sprintf("%s %v %d-%d %s", sw.lib, sw.poll, first, last, prev))
		}
		for d := time.Duration(0); d <= sw.max; d++ {
			r, undecided := exitPoint(sw.lib, sw.poll, d)
			if undecided != 0 {
				t.Errorf("%s %v %d: the exit was guessed", sw.lib, sw.poll, d)
			}
			if d > 0 && r != prev {
				flush(d - 1)
				first = d
			}
			prev = r
		}
		flush(sw.max)
	}
	if *updateExits {
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
		t.Errorf("exit sweep differs from %s:\n got:\n%s\nwant:\n%s", path, want, data)
	}
}

// TestIdlePollGrid is a timing oracle for the polling period: a lone
// service with nothing to poll starts pass k at W0 + k·(interval + cost),
// where W0 is the dispatch overhead and cost is what one idle pass charges
// (nothing for TAMPI, which books no Testsome; one request test per GASPI
// queue for TAGASPI). Rank 1 sleeps long after its peer has finished, so
// rank 0's service is dormant through the closing barrier and the grid
// covers the passes it skips and replays as well as those it runs.
func TestIdlePollGrid(t *testing.T) {
	prof := fabric.ProfileOmniPath()
	const interval = 3 * time.Microsecond
	for _, lib := range []string{"tampi", "tagaspi"} {
		t.Run(lib, func(t *testing.T) {
			var cost time.Duration
			if lib == "tagaspi" {
				cost = queues * (prof.RDMAOpOverhead / 2)
			}
			col := obs.NewCollector(2)
			Run(Config{
				Nodes: 2, RanksPerNode: 1, CoresPerRank: 1, Profile: prof,
				WithTasking: true, WithTAMPI: lib == "tampi", WithTAGASPI: lib == "tagaspi",
				TAMPIPoll: interval, TAGASPIPoll: interval, Recorder: col,
			}, func(env *Env) {
				if env.Rank == 1 {
					env.Clk.Sleep(40 * interval)
				}
			})
			var starts []time.Duration // rank 0's pass starts after the first
			for _, e := range col.Tracer.Events() {
				if e.Rank == 0 && e.Name == "task:wait" {
					if e.Dur != interval {
						t.Fatalf("a wait of %v at %v, want the %v interval", e.Dur, e.Ts, interval)
					}
					starts = append(starts, e.Ts+e.Dur)
				}
			}
			if len(starts) < 30 {
				t.Fatalf("only %d passes after the first", len(starts))
			}
			slices.Sort(starts)
			for k, s := range starts {
				if want := DispatchOverhead + time.Duration(k+1)*(interval+cost); s != want {
					t.Fatalf("pass %d starts at %v, want %v", k+1, s, want)
				}
			}
		})
	}
}
