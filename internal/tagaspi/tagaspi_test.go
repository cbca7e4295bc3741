package tagaspi_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/tagaspi"
	"repro/internal/tasking"
)

// must fails fast on simulator API errors in rank mains and task bodies,
// which run outside the test goroutine and have no *testing.T to report to.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustSeg is SegmentCreate with the error turned into a panic, followed by
// a barrier: gaspi_segment_create is a collective operation, so no rank may
// target a remote segment before every rank has registered it. The barrier
// matters under ProfileIdeal, where a zero-latency write+notify posted at
// t=0 would otherwise race the destination rank's registration within the
// same virtual instant.
func mustSeg(env *cluster.Env, id gaspisim.SegmentID, size int) *memory.Segment {
	seg, err := env.GASPI.SegmentCreate(id, size)
	must(err)
	env.MPI.Barrier()
	return seg
}

// sample returns the value of the named sample in l's snapshot, or 0 if
// absent.
func sample(l *tagaspi.Library, name string) float64 {
	for _, smp := range l.Snapshot().Samples {
		if smp.Name == name {
			return smp.Value
		}
	}
	return 0
}

func hybridConfig(ranks int) cluster.Config {
	return cluster.Config{
		Nodes: ranks, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: 5 * time.Microsecond,
	}
}

// The Figures 3+4 flow: the sender task write+notifies from buffer A
// (declared in); the receiver task asynchronously waits the notification
// (buffer B and the notified flag declared out); the processing task
// consumes B once the receiver task's dependencies are released.
func TestWriteNotifyDataFlow(t *testing.T) {
	var processed atomic.Int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		const N = 64
		seg := mustSeg(env, 0, N)
		switch env.Rank {
		case 0:
			for i := 0; i < N; i++ {
				seg.Bytes()[i] = byte(i)
			}
			env.RT.Submit(func(tk *tasking.Task) {
				// write data: A[0:N] is an input dependency (the source).
				must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, N, 10, 1, 0))
				// A[0:N] cannot be reused here! (Figure 3)
			}, tasking.WithDeps(tasking.In(seg, 0, N)), tasking.WithLabel("write data"))
			env.RT.Submit(func(tk *tasking.Task) {
				// reuse: runs only after the write locally completed.
				for i := 0; i < N; i++ {
					seg.Bytes()[i] = 0xFF
				}
			}, tasking.WithDeps(tasking.InOut(seg, 0, N)), tasking.WithLabel("reuse"))
		case 1:
			var notified int64
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAGASPI.NotifyIwait(tk, 0, 10, &notified)
			}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&notified)),
				tasking.WithLabel("wait data"))
			env.RT.Submit(func(tk *tasking.Task) {
				if notified != 1 {
					t.Errorf("notified = %d, want 1", notified)
				}
				ok := true
				for i := 0; i < N; i++ {
					if seg.Bytes()[i] != byte(i) {
						ok = false
					}
				}
				if ok {
					processed.Store(1)
				}
			}, tasking.WithDeps(tasking.In(seg, 0, N), tasking.InVal(&notified)),
				tasking.WithLabel("process"))
		}
	})
	if processed.Load() != 1 {
		t.Fatal("processing task did not observe the written data")
	}
}

// The task must not complete (and its source-buffer dependency must not be
// released) before the operation's local completion.
func TestLocalCompletionGatesReuse(t *testing.T) {
	prof := fabric.ProfileOmniPath()
	var writeLocalDone, reuseStart time.Duration
	cluster.Run(cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 2,
		Profile: prof, WithTasking: true, WithTAGASPI: true,
		TAGASPIPoll: 2 * time.Microsecond,
	}, func(env *cluster.Env) {
		const N = 1 << 20 // 1 MiB: injection takes measurable modelled time
		seg := mustSeg(env, 0, N)
		switch env.Rank {
		case 0:
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, N, 0, 1, 0))
				writeLocalDone = env.Clk.Now() // body end; completion comes later
			}, tasking.WithDeps(tasking.In(seg, 0, N)))
			env.RT.Submit(func(tk *tasking.Task) {
				reuseStart = env.Clk.Now()
			}, tasking.WithDeps(tasking.InOut(seg, 0, N)))
		case 1:
			var v int64
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAGASPI.NotifyIwait(tk, 0, 0, &v)
			}, tasking.WithDeps(tasking.Out(seg, 0, N)))
		}
	})
	// 1 MiB at 12 GB/s is ~87µs of injection: reuse must start after that,
	// strictly later than the instant the writer body returned.
	if reuseStart <= writeLocalDone {
		t.Fatalf("reuse at %v did not wait for local completion (body ended %v)",
			reuseStart, writeLocalDone)
	}
	if reuseStart < 80*time.Microsecond {
		t.Fatalf("reuse at %v, want >= ~87µs of injection time", reuseStart)
	}
}

// The Figure 5 pattern: iterative producer-consumer with an ack
// notification waited by an extra task.
func TestIterativeProducerConsumerWithAckTask(t *testing.T) {
	const iters = 8
	const N = 32
	var received atomic.Int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		seg := mustSeg(env, 0, N)
		switch env.Rank {
		case 0:
			var ackNotified int64
			for i := 0; i < iters; i++ {
				i := i
				// wait ack (not needed on the very first iteration; the
				// receiver pre-seeds ack 20 once at start, as real codes do
				// by initialising the ack notification).
				env.RT.Submit(func(tk *tasking.Task) {
					env.TAGASPI.NotifyIwait(tk, 0, 20, &ackNotified)
				}, tasking.WithDeps(tasking.OutVal(&ackNotified)),
					tasking.WithLabel("wait ack"))
				// write data
				env.RT.Submit(func(tk *tasking.Task) {
					seg.Bytes()[0] = byte(i + 1)
					must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, N, 10, int64(i+1), 0))
				}, tasking.WithDeps(tasking.In(seg, 0, N), tasking.InVal(&ackNotified)),
					tasking.WithLabel("write data"))
				// reuse
				env.RT.Submit(func(tk *tasking.Task) {
					seg.Bytes()[0] = 0
				}, tasking.WithDeps(tasking.InOut(seg, 0, N)), tasking.WithLabel("reuse"))
			}
		case 1:
			// Seed the first ack so the producer may write iteration 0.
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 0, 0, 20, 1, 0))
			}, tasking.WithLabel("seed ack"))
			var notified int64
			for i := 0; i < iters; i++ {
				i := i
				// wait data
				env.RT.Submit(func(tk *tasking.Task) {
					env.TAGASPI.NotifyIwait(tk, 0, 10, &notified)
				}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&notified)),
					tasking.WithLabel("wait data"))
				// process + send ack (the ack goes right after consumption,
				// inside the consumer task — the §IV-B optimal placement).
				env.RT.Submit(func(tk *tasking.Task) {
					if notified == int64(i+1) && seg.Bytes()[0] == byte(i+1) {
						received.Add(1)
					}
					must(env.TAGASPI.Notify(tk, 0, 0, 20, 1, 0))
				}, tasking.WithDeps(tasking.InOut(seg, 0, N), tasking.InVal(&notified)),
					tasking.WithLabel("process"))
			}
		}
	})
	if received.Load() != iters {
		t.Fatalf("received %d/%d iterations intact", received.Load(), iters)
	}
}

// The Figure 8 pattern: the ack wait moves into an onready callback on the
// writer task, eliminating the extra wait-ack task (§V-A).
func TestProducerConsumerWithOnready(t *testing.T) {
	const iters = 8
	const N = 32
	var received atomic.Int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		seg := mustSeg(env, 0, N)
		switch env.Rank {
		case 0:
			for i := 0; i < iters; i++ {
				i := i
				env.RT.Submit(func(tk *tasking.Task) {
					seg.Bytes()[0] = byte(i + 1)
					must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, N, 10, int64(i+1), 0))
				}, tasking.WithDeps(tasking.In(seg, 0, N)),
					tasking.WithOnReady(func(tk *tasking.Task) {
						// ack_iwait: delays execution until the ack arrives.
						env.TAGASPI.NotifyIwait(tk, 0, 20, nil)
					}),
					tasking.WithLabel("write data"))
				env.RT.Submit(func(tk *tasking.Task) {
					seg.Bytes()[0] = 0
				}, tasking.WithDeps(tasking.InOut(seg, 0, N)), tasking.WithLabel("reuse"))
			}
		case 1:
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 0, 0, 20, 1, 0))
			}, tasking.WithLabel("seed ack"))
			var notified int64
			for i := 0; i < iters; i++ {
				i := i
				env.RT.Submit(func(tk *tasking.Task) {
					env.TAGASPI.NotifyIwait(tk, 0, 10, &notified)
				}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&notified)),
					tasking.WithLabel("wait data"))
				env.RT.Submit(func(tk *tasking.Task) {
					if notified == int64(i+1) && seg.Bytes()[0] == byte(i+1) {
						received.Add(1)
					}
					must(env.TAGASPI.Notify(tk, 0, 0, 20, 1, 0))
				}, tasking.WithDeps(tasking.InOut(seg, 0, N), tasking.InVal(&notified)),
					tasking.WithLabel("process"))
			}
		}
	})
	if received.Load() != iters {
		t.Fatalf("received %d/%d iterations intact", received.Load(), iters)
	}
}

// tagaspi_read: the reader task declares the local buffer out; a successor
// consumes the data pulled from the remote rank.
func TestTaskAwareRead(t *testing.T) {
	var ok atomic.Bool
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		const N = 16
		seg := mustSeg(env, 0, 2*N)
		switch env.Rank {
		case 0:
			// Expose data for the remote read, then signal readiness.
			for i := 0; i < N; i++ {
				seg.Bytes()[i] = byte(100 + i)
			}
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 1, 0, 5, 1, 0))
			})
		case 1:
			var ready int64
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAGASPI.NotifyIwait(tk, 0, 5, &ready)
			}, tasking.WithDeps(tasking.OutVal(&ready)))
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Read(tk, 0, N, 0, 0, 0, N, 0))
			}, tasking.WithDeps(tasking.InVal(&ready), tasking.Out(seg, N, 2*N)),
				tasking.WithLabel("read"))
			env.RT.Submit(func(tk *tasking.Task) {
				good := true
				for i := 0; i < N; i++ {
					if seg.Bytes()[N+i] != byte(100+i) {
						good = false
					}
				}
				ok.Store(good)
			}, tasking.WithDeps(tasking.In(seg, N, 2*N)), tasking.WithLabel("consume"))
		}
	})
	if !ok.Load() {
		t.Fatal("read data not visible to the consumer task")
	}
}

func TestNotifyIwaitAlreadyArrived(t *testing.T) {
	// If the notification arrived before notify_iwait, the call consumes it
	// immediately and registers no event (§IV-D).
	var value int64
	cluster.Run(hybridConfig(2), func(env *cluster.Env) {
		mustSeg(env, 0, 8)
		switch env.Rank {
		case 0:
			env.RT.Submit(func(tk *tasking.Task) {
				must(env.TAGASPI.Notify(tk, 1, 0, 0, 42, 0))
			})
		case 1:
			env.RT.Submit(func(tk *tasking.Task) {
				// Ensure arrival strictly first.
				tk.Compute(50 * time.Microsecond)
				for env.GASPI.NotificationsSet() == 0 {
					tk.Compute(5 * time.Microsecond)
				}
				env.TAGASPI.NotifyIwait(tk, 0, 0, &value)
				if sample(env.TAGASPI, "tagaspi_pending_notifications") != 0 {
					t.Error("already-arrived notification must not be staged")
				}
			})
		}
	})
	if value != 42 {
		t.Fatalf("value = %d, want 42", value)
	}
}

// TAGASPI and TAMPI in the same application (§III): one-sided for the data
// path, two-sided for a control exchange, in the same tasks.
func TestInteroperabilityWithTAMPI(t *testing.T) {
	var ok atomic.Bool
	cfg := hybridConfig(2)
	cfg.WithTAMPI = true
	cfg.TAMPIPoll = 5 * time.Microsecond
	cluster.Run(cfg, func(env *cluster.Env) {
		const N = 16
		seg := mustSeg(env, 0, N)
		switch env.Rank {
		case 0:
			for i := 0; i < N; i++ {
				seg.Bytes()[i] = byte(i)
			}
			env.RT.Submit(func(tk *tasking.Task) {
				// One task mixing both libraries' services.
				must(env.TAGASPI.WriteNotify(tk, 0, 0, 1, 0, 0, N, 0, 1, 0))
				env.TAMPI.Iwait(tk, env.MPI.Isend([]byte("meta"), 1, 0))
			}, tasking.WithDeps(tasking.In(seg, 0, N)))
		case 1:
			var notified int64
			meta := make([]byte, 4)
			env.RT.Submit(func(tk *tasking.Task) {
				env.TAGASPI.NotifyIwait(tk, 0, 0, &notified)
				env.TAMPI.Iwait(tk, env.MPI.Irecv(meta, 0, 0))
			}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&notified)))
			env.RT.Submit(func(tk *tasking.Task) {
				good := string(meta) == "meta"
				for i := 0; i < N; i++ {
					if seg.Bytes()[i] != byte(i) {
						good = false
					}
				}
				ok.Store(good)
			}, tasking.WithDeps(tasking.In(seg, 0, N), tasking.InVal(&notified)))
		}
	})
	if !ok.Load() {
		t.Fatal("mixed TAGASPI+TAMPI task flow failed")
	}
}
