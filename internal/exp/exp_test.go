package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// testSweep builds a sweep of n tiny 2-rank jobs exchanging one message,
// each yielding its modelled elapsed time (in us) under series "t".
func testSweep(n int) *Sweep {
	sw := &Sweep{
		Fig: Figure{
			ID: "test", Title: "executor test",
			XLabel: "i", YLabel: "us",
		},
		Series: []string{"t"},
	}
	for i := 0; i < n; i++ {
		x := float64(i)
		sw.Fig.X = append(sw.Fig.X, x)
		sw.Points = append(sw.Points, Point{
			ID: "p" + string(rune('a'+i)),
			X:  x,
			Cfg: cluster.Config{
				Nodes: 2, RanksPerNode: 1, CoresPerRank: 1,
				Profile: fabric.ProfileInfiniBand(),
			},
			Main: func(env *cluster.Env) {
				buf := make([]byte, 64*(1+int(x)))
				switch env.Rank {
				case 0:
					env.MPI.Send(buf, 1, 7)
				case 1:
					env.MPI.Recv(buf, 0, 7)
				}
			},
			Values: func(job cluster.Result) map[string]float64 {
				return map[string]float64{"t": job.Elapsed.Seconds() * 1e6}
			},
		})
	}
	return sw
}

// The engine's core contract: results arrive in point order with seeds
// derived from ids, and any worker count yields identical results.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	run := func(workers int) (Figure, []Result) {
		sw := testSweep(6)
		rs := sw.Execute(Options{Pool: NewPool(workers)})
		return sw.Build(rs), rs
	}
	seqFig, seq := run(1)
	parFig, par := run(8)
	if len(seq) != 6 || len(par) != 6 {
		t.Fatalf("result counts: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID || seq[i].X != par[i].X {
			t.Fatalf("point %d: order differs: %+v vs %+v", i, seq[i], par[i])
		}
		if seq[i].Seed != SeedFor("test", seq[i].ID) {
			t.Fatalf("point %s: seed %d not derived from id", seq[i].ID, seq[i].Seed)
		}
		if seq[i].Modelled != par[i].Modelled {
			t.Fatalf("point %s: modelled time differs: %v vs %v",
				seq[i].ID, seq[i].Modelled, par[i].Modelled)
		}
		if !reflect.DeepEqual(seq[i].Values, par[i].Values) {
			t.Fatalf("point %s: values differ: %v vs %v",
				seq[i].ID, seq[i].Values, par[i].Values)
		}
		if seq[i].Modelled <= 0 || seq[i].Host < 0 {
			t.Fatalf("point %s: implausible times %v / %v",
				seq[i].ID, seq[i].Modelled, seq[i].Host)
		}
	}
	if !reflect.DeepEqual(seqFig.Series, parFig.Series) {
		t.Fatalf("figures differ:\n%+v\n%+v", seqFig.Series, parFig.Series)
	}
}

// A shared pool must bound concurrency across sweeps without changing
// results.
func TestSharedPoolMatchesPrivateExecution(t *testing.T) {
	pool := NewPool(3)
	if pool.Workers() != 3 {
		t.Fatalf("pool workers = %d", pool.Workers())
	}
	a := testSweep(4).Execute(Options{Pool: pool})
	b := testSweep(4).Execute(Options{Pool: NewPool(1)})
	for i := range a {
		if a[i].Modelled != b[i].Modelled || !reflect.DeepEqual(a[i].Values, b[i].Values) {
			t.Fatalf("point %d differs under shared pool", i)
		}
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	a := SeedFor("9", "TAGASPI/n4/b64x64")
	if a != SeedFor("9", "TAGASPI/n4/b64x64") {
		t.Fatal("SeedFor not stable")
	}
	if a == SeedFor("9", "TAGASPI/n8/b64x64") || a == SeedFor("10", "TAGASPI/n4/b64x64") {
		t.Fatal("SeedFor collides across distinct identities")
	}
	if a <= 0 {
		t.Fatalf("SeedFor must be positive, got %d", a)
	}
}

func TestExplicitSeedIsKept(t *testing.T) {
	sw := testSweep(1)
	sw.Points[0].Cfg.Seed = 12345
	rs := sw.Execute(Options{Pool: NewPool(1)})
	if rs[0].Seed != 12345 {
		t.Fatalf("explicit seed overridden: %d", rs[0].Seed)
	}
}

func TestBuildPanicsOnUndeclaredSeries(t *testing.T) {
	sw := &Sweep{
		Fig:    Figure{ID: "x", X: []float64{1}},
		Series: []string{"declared"},
	}
	rs := []Result{{ID: "p", X: 1, Values: map[string]float64{"undeclared": 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted an undeclared series")
		}
	}()
	sw.Build(rs)
}

func TestSpeedupAndEfficiency(t *testing.T) {
	thr := []float64{2, 3.6, 6.4}
	x := []float64{1, 2, 4}
	sp := Speedup(thr, 2)
	want := []float64{1, 1.8, 3.2}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-12 {
			t.Fatalf("Speedup = %v", sp)
		}
	}
	eff := Efficiency(thr, x)
	wantE := []float64{1, 0.9, 0.8}
	for i := range wantE {
		if math.Abs(eff[i]-wantE[i]) > 1e-12 {
			t.Fatalf("Efficiency = %v", eff)
		}
	}
}

func TestRenderFormatsTable(t *testing.T) {
	f := Figure{
		ID: "x", Title: "test figure", XLabel: "n", YLabel: "y",
		X:      []float64{1, 2},
		Series: []Series{{Name: "a", Y: []float64{0.5, 1.5}}, {Name: "b", Y: []float64{2}}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"test figure", "a note", "n", "a", "b", "0.5", "1.5", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(8) != "8" {
		t.Fatal("integers must render without decimals")
	}
	if trimFloat(0.5) != "0.5" {
		t.Fatal("fractions must keep their digits")
	}
}
