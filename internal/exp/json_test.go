package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Two parallel executions of the same sweep must serialize to identical
// bytes once host times are excluded — the property the CI determinism
// gate diffs on the full figure set.
func TestJSONByteIdenticalAcrossParallelRuns(t *testing.T) {
	render := func() []byte {
		sw := testSweep(5)
		rs := sw.Execute(Options{Pool: NewPool(4)})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, RowsOf(sw, rs, false)); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("JSON differs across runs:\n%s\n--\n%s", a, b)
	}
}

func TestJSONDocumentShape(t *testing.T) {
	sw := testSweep(2)
	rs := sw.Execute(Options{Pool: NewPool(1)})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, RowsOf(sw, rs, true)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Rows   []Row  `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.Schema != Schema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("rows = %d", len(doc.Rows))
	}
	for i, row := range doc.Rows {
		if row.Fig != "test" || row.Series != "t" {
			t.Fatalf("row %d mislabelled: %+v", i, row)
		}
		if row.Y <= 0 || row.ModelledMS <= 0 {
			t.Fatalf("row %d lacks modelled values: %+v", i, row)
		}
		if row.Seed != SeedFor("test", rs[i].ID) {
			t.Fatalf("row %d seed %d not the point seed", i, row.Seed)
		}
		if row.HostMS < 0 {
			t.Fatalf("row %d negative host time: %+v", i, row)
		}
	}
	// Every required schema key must appear literally in the document.
	out := buf.String()
	for _, key := range []string{`"fig"`, `"series"`, `"x"`, `"y"`, `"host_ms"`, `"modelled_ms"`, `"seed"`} {
		if !strings.Contains(out, key) {
			t.Fatalf("document missing key %s:\n%s", key, out)
		}
	}
}

func TestRowsExcludeHostWhenAsked(t *testing.T) {
	sw := testSweep(1)
	rs := sw.Execute(Options{Pool: NewPool(1)})
	for _, row := range RowsOf(sw, rs, false) {
		if row.HostMS != 0 {
			t.Fatalf("host time leaked into deterministic rows: %+v", row)
		}
	}
}

func TestOrderedNamesDeclaredFirstThenSorted(t *testing.T) {
	names := orderedNames([]string{"b", "a"}, map[string]float64{
		"a": 1, "b": 2, "z": 3, "c": 4,
	})
	want := []string{"b", "a", "c", "z"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestSinkAccumulatesInInsertionOrder(t *testing.T) {
	sw := testSweep(2)
	rs := sw.Execute(Options{Pool: NewPool(1)})
	s := &Sink{}
	s.Add(sw, rs[:1])
	s.Add(sw, rs[1:])
	rows := s.Rows()
	if len(rows) != 2 || rows[0].X != 0 || rows[1].X != 1 {
		t.Fatalf("sink rows = %+v", rows)
	}
}
