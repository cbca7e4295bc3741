package figures

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestCommittedBaselineByteIdentical is the regression gate for every
// host-side change: regenerating every figure at the Quick preset must
// reproduce the committed BENCH_figures.json rows exactly, modulo
// host_ms (the only host-dependent field). Host-execution refactors —
// fabric steps on the clock queue, task starts keyed at the core grant,
// batched rank setup — must never move a modelled number.
func TestCommittedBaselineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure (seconds of host time)")
	}
	raw, err := os.ReadFile("../../BENCH_figures.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	var committed struct {
		Schema string    `json:"schema"`
		Rows   []exp.Row `json:"rows"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	if committed.Schema != "bench_figures/v1" {
		t.Fatalf("committed baseline schema %q", committed.Schema)
	}

	sink := &exp.Sink{} // IncludeHost false: host_ms stays zero
	gens := All()
	for _, id := range IDs() {
		gens[id](Opts{Preset: Quick, Exec: exp.Options{Pool: exp.NewPool(2)}, Sink: sink})
	}
	got := sink.Rows()
	if len(got) != len(committed.Rows) {
		t.Fatalf("regenerated %d rows, committed baseline has %d — regenerate BENCH_figures.json if figures were added", len(got), len(committed.Rows))
	}
	want := make([]exp.Row, len(committed.Rows))
	for i, w := range committed.Rows {
		w.HostMS = 0
		want[i] = w
	}
	if report := driftReport(want, got, 20); report != "" {
		t.Errorf("regenerated rows differ from BENCH_figures.json (committed → regenerated):\n%s", report)
	}
}

// driftReport names what moved between two equally long row lists: one
// line per drifted row, "fig/series/x: field old → new" for each differing
// field, at most limit of them, then one line per figure with drift
// counting its drifted rows. Identical lists give "".
func driftReport(old, cur []exp.Row, limit int) string {
	var b strings.Builder
	var figs []string
	drifted := make(map[string]int)
	total := make(map[string]int)
	shown := 0
	for i, o := range old {
		total[o.Fig]++
		fields := rowFieldDiffs(o, cur[i])
		if len(fields) == 0 {
			continue
		}
		if drifted[o.Fig] == 0 {
			figs = append(figs, o.Fig)
		}
		drifted[o.Fig]++
		if shown++; shown <= limit {
			fmt.Fprintf(&b, "  %s/%s/%v: %s\n", o.Fig, o.Series, o.X, strings.Join(fields, ", "))
		}
	}
	if shown == 0 {
		return ""
	}
	if shown > limit {
		fmt.Fprintf(&b, "  … and %d more drifted rows\n", shown-limit)
	}
	for _, fig := range figs {
		fmt.Fprintf(&b, "  fig %s: %d of %d rows drifted\n", fig, drifted[fig], total[fig])
	}
	return b.String()
}

// rowFieldDiffs lists the fields of two rows that differ, each as
// "field old → new", under the rows' JSON names. host_ms is left out:
// the gate zeroes it on both sides.
func rowFieldDiffs(o, c exp.Row) []string {
	var d []string
	add := func(name string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s %v → %v", name, a, b))
		}
	}
	add("fig", o.Fig, c.Fig)
	add("series", o.Series, c.Series)
	add("x", o.X, c.X)
	add("y", o.Y, c.Y)
	add("modelled_ms", o.ModelledMS, c.ModelledMS)
	add("seed", o.Seed, c.Seed)
	return d
}

// TestDriftReport pins the drift report's shape: only the differing
// fields of a drifted row, the row cap, and per-figure counts.
func TestDriftReport(t *testing.T) {
	old := []exp.Row{
		{Fig: "9", Series: "TAMPI", X: 4, Y: 1.5, ModelledMS: 2.117253, Seed: 3},
		{Fig: "9", Series: "TAGASPI", X: 4, Y: 2, ModelledMS: 1, Seed: 4},
		{Fig: "10", Series: "TAMPI", X: 16, Y: 3, ModelledMS: 2, Seed: 5},
	}
	if r := driftReport(old, old, 20); r != "" {
		t.Fatalf("identical rows reported drift:\n%s", r)
	}
	cur := slices.Clone(old)
	cur[0].ModelledMS = 2.125504
	cur[2].Y, cur[2].Seed = 3.5, 6
	want := "  9/TAMPI/4: modelled_ms 2.117253 → 2.125504\n" +
		"  10/TAMPI/16: y 3 → 3.5, seed 5 → 6\n" +
		"  fig 9: 1 of 2 rows drifted\n" +
		"  fig 10: 1 of 1 rows drifted\n"
	if r := driftReport(old, cur, 20); r != want {
		t.Fatalf("drift report\n%s\nwant\n%s", r, want)
	}
	want = "  9/TAMPI/4: modelled_ms 2.117253 → 2.125504\n" +
		"  … and 1 more drifted rows\n" +
		"  fig 9: 1 of 2 rows drifted\n" +
		"  fig 10: 1 of 1 rows drifted\n"
	if r := driftReport(old, cur, 1); r != want {
		t.Fatalf("capped drift report\n%s\nwant\n%s", r, want)
	}
}
