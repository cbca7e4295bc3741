package figures

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/exp"
)

// fastIDs are the generators cheap enough to run repeatedly in unit
// tests; the full set is exercised by the root benchmarks and the CI
// determinism gate.
var fastIDs = []string{"rma", "onready", "lock"}

// The engine contract at the figure level: a host-parallel run must
// produce exactly the figure a sequential run produces — modelled results
// cannot depend on worker count or point execution order.
func TestParallelFiguresMatchSequential(t *testing.T) {
	gens := All()
	for _, id := range fastIDs {
		seq := gens[id](Opts{Preset: Quick, Exec: exp.Options{Pool: exp.NewPool(1)}})
		par := gens[id](Opts{Preset: Quick, Exec: exp.Options{Pool: exp.NewPool(8)}})
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("figure %s differs between -seq and -parallel:\n%+v\n%+v", id, seq, par)
		}
	}
}

// Two parallel runs of the same figures must serialize to byte-identical
// JSON (host times excluded): seeds derive from point ids, never from
// sweep iteration order.
func TestParallelJSONByteIdentical(t *testing.T) {
	render := func() []byte {
		sink := &exp.Sink{}
		gens := All()
		for _, id := range fastIDs {
			gens[id](Opts{Preset: Quick, Exec: exp.Options{Pool: exp.NewPool(8)}, Sink: sink})
		}
		var buf bytes.Buffer
		if err := exp.WriteJSON(&buf, sink.Rows()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("JSON differs across two parallel runs:\n%s\n--\n%s", a, b)
	}
}

// The sink must see one row per (point, series) sample with the figure id
// attached — the BENCH_figures.json contract.
func TestSinkRowsCoverEveryPoint(t *testing.T) {
	sink := &exp.Sink{}
	f := All()["rma"](Opts{Preset: Quick, Sink: sink})
	rows := sink.Rows()
	// Quick rma: 2 sizes x 2 series.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row.Fig != "rma" {
			t.Fatalf("row mislabelled: %+v", row)
		}
		if row.Seed <= 0 || row.ModelledMS <= 0 {
			t.Fatalf("row lacks seed or modelled time: %+v", row)
		}
	}
	// The rendered figure and the rows must agree on the raw values.
	for _, s := range f.Series {
		for i, y := range s.Y {
			found := false
			for _, row := range rows {
				if row.Series == s.Name && row.X == f.X[i] && row.Y == y {
					found = true
				}
			}
			if !found {
				t.Fatalf("series %q x=%v y=%v missing from rows", s.Name, f.X[i], y)
			}
		}
	}
}
