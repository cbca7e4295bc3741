package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// Schema names the BENCH_*.json document layout; bump on breaking change.
const Schema = "bench_figures/v1"

// Row is one machine-readable sample of a sweep: the raw per-point value
// of one series (speedup/efficiency derivations happen at render time and
// are reproducible from these), plus the point's modelled elapsed time,
// its host simulation cost, and the seed it ran with.
type Row struct {
	Fig        string  `json:"fig"`
	Series     string  `json:"series"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	HostMS     float64 `json:"host_ms"` // 0 when host times are excluded
	ModelledMS float64 `json:"modelled_ms"`
	Seed       int64   `json:"seed"`
}

// RowsOf flattens executed sweep results into rows: one row per (point,
// series) sample, points in point order, series in declared order (names
// a point yields beyond the declaration follow, sorted). host_ms is the
// only field that is not a pure function of the sweep definition; pass
// includeHost=false to zero it and make the output byte-stable across
// runs — the determinism gate in scripts/ci.sh relies on this.
func RowsOf(sw *Sweep, rs []Result, includeHost bool) []Row {
	var rows []Row
	for _, r := range rs {
		host := 0.0
		if includeHost {
			host = math.Round(float64(r.Host.Microseconds())) / 1e3
		}
		for _, name := range orderedNames(sw.Series, r.Values) {
			rows = append(rows, Row{
				Fig: sw.Fig.ID, Series: name, X: r.X, Y: r.Values[name],
				HostMS:     host,
				ModelledMS: float64(r.Modelled.Nanoseconds()) / 1e6,
				Seed:       r.Seed,
			})
		}
	}
	return rows
}

// orderedNames returns the keys of vals: declared names first in their
// declaration order, any remainder sorted for determinism.
func orderedNames(declared []string, vals map[string]float64) []string {
	if len(vals) == 0 {
		return nil
	}
	names := make([]string, 0, len(vals))
	seen := make(map[string]bool, len(vals))
	for _, name := range declared {
		if _, ok := vals[name]; ok {
			names = append(names, name)
			seen[name] = true
		}
	}
	var extra []string
	for name := range vals {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// WriteJSON writes rows as the canonical BENCH_*.json document: a schema
// header and one row object per line (diff- and grep-friendly). Field
// order is fixed by the Row struct, float formatting by encoding/json, so
// identical rows serialize to identical bytes.
func WriteJSON(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintf(w, "{\n  \"schema\": %q,\n  \"rows\": [\n", Schema); err != nil {
		return err
	}
	for i, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(rows)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "    %s%s\n", b, sep); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "  ]\n}\n")
	return err
}

// Sink accumulates the rows of several sweeps (guarded for host-parallel
// figure generation) for one JSON document.
type Sink struct {
	// IncludeHost selects whether rows carry measured host times; leave
	// false for byte-stable output (see RowsOf).
	IncludeHost bool

	mu   sync.Mutex
	rows []Row
}

// Add appends the rows of one executed sweep.
func (s *Sink) Add(sw *Sweep, rs []Result) {
	rows := RowsOf(sw, rs, s.IncludeHost)
	s.mu.Lock()
	s.rows = append(s.rows, rows...)
	s.mu.Unlock()
}

// Rows returns the accumulated rows in insertion order.
func (s *Sink) Rows() []Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Row(nil), s.rows...)
}
