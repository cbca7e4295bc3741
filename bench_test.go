// Package repro's top-level benchmarks regenerate each figure of the
// paper's evaluation at the Quick scale, reporting the modelled figures of
// merit as custom benchmark metrics. One benchmark exists per paper figure
// plus one per ablation; `cmd/figures` prints the full tables at the
// reproduction scale.
package repro

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/figures"
	"repro/internal/vclock"
)

// reportSeries registers each (series, x) value of a figure as a metric.
func reportSeries(b *testing.B, f figures.Figure) {
	b.Helper()
	for _, s := range f.Series {
		name := strings.ReplaceAll(s.Name, " ", "_")
		for i, y := range s.Y {
			if i < len(f.X) {
				b.ReportMetric(y, name+"@"+trim(f.X[i]))
			}
		}
	}
}

func trim(x float64) string {
	if x == float64(int64(x)) {
		return itoa(int64(x))
	}
	return "x"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func benchFigure(b *testing.B, id string) {
	gen := figures.All()[id]
	var last figures.Figure
	for i := 0; i < b.N; i++ {
		last = gen(figures.Opts{Preset: figures.Quick})
	}
	reportSeries(b, last)
}

// benchAllFigures regenerates the complete Quick figure set through the
// exp engine at the given host-worker bound — the repo's hot path, and
// the headline measurement for the engine's host-parallel speedup.
func benchAllFigures(b *testing.B, workers int) {
	gens := figures.All()
	for i := 0; i < b.N; i++ {
		for _, id := range figures.IDs() {
			gens[id](figures.Opts{
				Preset: figures.Quick,
				Exec:   exp.Options{Workers: workers},
			})
		}
	}
}

func BenchmarkAllFiguresSequential(b *testing.B) { benchAllFigures(b, 1) }
func BenchmarkAllFiguresParallel(b *testing.B)   { benchAllFigures(b, 0) }

func BenchmarkFig09GaussSeidelScaling(b *testing.B)   { benchFigure(b, "9") }
func BenchmarkFig10GaussSeidelBlocksize(b *testing.B) { benchFigure(b, "10") }
func BenchmarkFig11MiniAMRScaling(b *testing.B)       { benchFigure(b, "11") }
func BenchmarkFig12MiniAMRVariables(b *testing.B)     { benchFigure(b, "12") }
func BenchmarkFig13aStreamingMN4(b *testing.B)        { benchFigure(b, "13a") }
func BenchmarkFig13bStreamingCTEAMD(b *testing.B)     { benchFigure(b, "13b") }
func BenchmarkAblationMPILockContention(b *testing.B) { benchFigure(b, "lock") }
func BenchmarkAblationPollingPeriod(b *testing.B)     { benchFigure(b, "poll") }
func BenchmarkAblationRMANotification(b *testing.B)   { benchFigure(b, "rma") }
func BenchmarkAblationOnready(b *testing.B)           { benchFigure(b, "onready") }

// BenchmarkCourierDelivery measures the fabric courier hot path on the
// host — one uninstrumented Send through injection and delivery — in the
// shape the protocol models drive it: a window of in-flight messages per
// wakeup, so the couriers' batched draining is exercised. ns/op and
// allocs/op here are the per-message host cost of the simulator's most
// executed path; the committed allocation budget lives in
// internal/fabric's TestCourierAllocBudget.
func BenchmarkCourierDelivery(b *testing.B) {
	const window = 64
	clk := vclock.NewVirtual()
	f := fabric.New(clk, fabric.NewTopology(2, 1), fabric.ProfileOmniPath())
	// The sender obeys the clock contract: it runs on a clock goroutine and
	// waits for its window on a clock parker, so the couriers never see a
	// push from outside the simulation race one of their timer expiries.
	sender := clk.Parker()
	var got atomic.Int32
	f.Register(1, fabric.ClassMPI, func(m *fabric.Message) {
		if got.Add(1) == window {
			got.Store(0)
			sender.Unpark()
		}
	})
	send := func(n int) {
		got.Store(int32(window - n))
		for i := 0; i < n; i++ {
			m := fabric.NewMessage()
			m.Src, m.Dst, m.Class, m.Size = 0, 1, fabric.ClassMPI, 256
			f.Send(m)
		}
		sender.Park()
	}
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		send(window) // warm up: courier spawn, queue growth, pool fill
		b.ReportAllocs()
		b.ResetTimer()
		for sent := 0; sent < b.N; sent += window {
			send(min(window, b.N-sent))
		}
		b.StopTimer()
	})
	<-done
	f.Close()
}

// BenchmarkGaussSeidelTAGASPI measures one mid-size hybrid Gauss-Seidel
// run end to end (host time), reporting modelled throughput.
func BenchmarkGaussSeidelTAGASPI(b *testing.B) {
	p := heat.Params{Rows: 512, Cols: 1024, Timesteps: 8, BlockRows: 32, BlockCols: 32}
	var thr float64
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			Nodes: 4, RanksPerNode: 2, CoresPerRank: 4,
			Profile:     fabric.ProfileOmniPath(),
			WithTasking: true, WithTAGASPI: true,
			TAGASPIPoll: 5 * time.Microsecond,
		}
		res := cluster.Run(cfg, func(env *cluster.Env) { heat.RunTAGASPI(env, p) })
		thr = p.Updates() / res.Elapsed.Seconds() / 1e9
	}
	b.ReportMetric(thr, "GUpd/s")
}

// BenchmarkStreamingTAGASPI measures the Streaming pipeline on the
// InfiniBand profile.
func BenchmarkStreamingTAGASPI(b *testing.B) {
	p := streaming.Params{Chunks: 8, ChunkElems: 16 << 10, BlockSize: 512}
	var thr float64
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			Nodes: 4, RanksPerNode: 1, CoresPerRank: 8,
			Profile:     fabric.ProfileInfiniBand(),
			WithTasking: true, WithTAGASPI: true,
			TAGASPIPoll: time.Microsecond,
		}
		res := cluster.Run(cfg, func(env *cluster.Env) { streaming.RunTAGASPI(env, p) })
		thr = p.Elements() / res.Elapsed.Seconds() / 1e9
	}
	b.ReportMetric(thr, "GElem/s")
}

// BenchmarkMiniAMRTAGASPI measures the AMR proxy end to end.
func BenchmarkMiniAMRTAGASPI(b *testing.B) {
	p := miniamr.Params{
		Grid: [3]int{2, 2, 2}, Cells: 4, Vars: 10,
		Steps: 10, RefineEvery: 5, MaxLevel: 1, Radius: 0.5,
	}
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 2, CoresPerRank: 4,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond,
	}
	epochs := p.Epochs(4)
	var thr float64
	for i := 0; i < b.N; i++ {
		res := cluster.Run(cfg, func(env *cluster.Env) { miniamr.RunTAGASPI(env, p, epochs) })
		thr = miniamr.Work(p, epochs) / res.Elapsed.Seconds() / 1e9
	}
	b.ReportMetric(thr, "GUpd/s")
}
