package figures

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/exp"
)

// TestCommittedBaselineByteIdentical is the regression gate for every
// host-side change: regenerating every figure at the Quick preset must
// reproduce the committed BENCH_figures.json rows exactly, modulo
// host_ms (the only host-dependent field). Host-execution refactors —
// fabric steps on the clock queue, worker pooling, batched rank setup —
// must never move a modelled number.
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
		gens[id](Opts{Preset: Quick, Exec: exp.Options{Workers: 2}, Sink: sink})
	}
	got := sink.Rows()
	if len(got) != len(committed.Rows) {
		t.Fatalf("regenerated %d rows, committed baseline has %d — regenerate BENCH_figures.json if figures were added", len(got), len(committed.Rows))
	}
	for i, g := range got {
		want := committed.Rows[i]
		want.HostMS = 0
		if g != want {
			t.Errorf("row %d drifted:\n  regenerated %+v\n  committed   %+v", i, g, want)
		}
	}
}
