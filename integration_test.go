package repro

import (
	"context"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
)

// The integration tests assert the paper's qualitative claims on the
// Quick-preset figure reproductions: who wins, and in which regime. The
// absolute numbers live in EXPERIMENTS.md; these tests pin the shape.

func TestHeadlineFig10TAGASPIWinsAcrossBlockSizes(t *testing.T) {
	f := figures.Fig10GaussSeidelBlocksize(figures.Opts{Preset: figures.Quick})
	series := seriesMap(f)
	for i := range f.X {
		if series["TAGASPI"][i] < series["TAMPI"][i] {
			t.Errorf("block %v: TAGASPI (%.3f) below TAMPI (%.3f)",
				f.X[i], series["TAGASPI"][i], series["TAMPI"][i])
		}
	}
}

func TestHeadlineFig13bTAGASPIWinsOnInfiniBand(t *testing.T) {
	f := figures.Fig13bStreamingInfiniBand(figures.Opts{Preset: figures.Quick})
	series := seriesMap(f)
	// At the small block size, TAMPI collapses on the MPI lock while
	// TAGASPI stays close to (or above) MPI-only.
	small := 0
	if series["TAGASPI"][small] < 2*series["TAMPI"][small] {
		t.Errorf("small blocks: TAGASPI (%.3f) not well above TAMPI (%.3f)",
			series["TAGASPI"][small], series["TAMPI"][small])
	}
}

func TestHeadlineRMANotificationRoundTrip(t *testing.T) {
	f := figures.AblationRMANotification(figures.Opts{Preset: figures.Quick})
	series := seriesMap(f)
	for i := range f.X {
		mpi := series["MPI put+flush+send"][i]
		gaspi := series["GASPI write_notify"][i]
		if mpi <= gaspi {
			t.Errorf("size %v: MPI idiom (%.2fus) not slower than GASPI (%.2fus)",
				f.X[i], mpi, gaspi)
		}
	}
}

func TestHeadlinePollingPeriodMatters(t *testing.T) {
	f := figures.AblationPollingPeriod(figures.Opts{Preset: figures.Quick})
	series := seriesMap(f)
	ys := series["TAGASPI"]
	if ys[0] <= ys[len(ys)-1] {
		t.Errorf("finer polling (%.3f) not faster than coarser (%.3f) on the communication-bound workload",
			ys[0], ys[len(ys)-1])
	}
}

func TestHeadlineLockBlowupSuperlinear(t *testing.T) {
	f := figures.AblationMPILockBlowup(figures.Opts{Preset: figures.Quick})
	series := seriesMap(f)
	times := series["MPI time (s)"]
	msgs := series["messages"]
	last := len(times) - 1
	timeRatio := times[0] / times[last]
	msgRatio := msgs[0] / msgs[last]
	if timeRatio <= msgRatio {
		t.Errorf("MPI time ratio %.1f not superlinear vs message ratio %.1f", timeRatio, msgRatio)
	}
}

func seriesMap(f figures.Figure) map[string][]float64 {
	m := make(map[string][]float64, len(f.Series))
	for _, s := range f.Series {
		m[s.Name] = s.Y
	}
	return m
}

// TestExamples builds and runs the four programs under examples/ — the
// repository's front door — and compares what they print with the lines
// below. They run on the virtual clock, so the output is a function of the
// code; ranks print concurrently, so the order of lines from different
// ranks is host order and the comparison is on the sorted lines. A panic,
// a simulated deadlock (the clock panics with a report) or a hang (the
// timeout) fails the test too.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs four binaries")
	}
	want := map[string][]string{
		"quickstart": {
			"rank 0: write completed locally, buffer reusable",
			`rank 1: notified (value 1): "hello from a one-sided task-aware write"`,
		},
		"rma-notify": {
			"notified 4096-byte transfer, modelled latency per round:",
			"  MPI  put + flush + send : 11.325µs",
			"  GASPI write_notify      : 4.057µs",
			"  ratio                   : 2.79x",
		},
		"halo": {
			"step 0: global residual 4.0000",
			"step 1: global residual 1.3333",
			"step 2: global residual 1.3333",
			"step 3: global residual 1.0370",
			"final interior of rank 0: 1.148 ... 0.383",
		},
		"producer-consumer": {
			"== Figure 5: extra wait-ack task ==",
			"  consumer: chunk 1 = 1",
			"  consumer: chunk 2 = 2",
			"  consumer: chunk 3 = 3",
			"  consumer: chunk 4 = 4",
			"  consumer: chunk 5 = 5",
			"== Figure 8: onready clause ==",
			"  consumer: chunk 1 = 1",
			"  consumer: chunk 2 = 2",
			"  consumer: chunk 3 = 3",
			"  consumer: chunk 4 = 4",
			"  consumer: chunk 5 = 5",
		},
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, lines := range want {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var stderr strings.Builder
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v (timeout: %v)\nstdout:\n%s\nstderr:\n%s", err, ctx.Err() != nil, out, stderr.String())
			}
			got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
			slices.Sort(got)
			slices.Sort(lines)
			if !slices.Equal(got, lines) {
				t.Errorf("sorted stdout:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(lines, "\n"))
			}
		})
	}
}
