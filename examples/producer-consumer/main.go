// Producer-consumer: the iterative pattern of §IV-B, in both codifications
// the paper shows — the extra wait-ack task of Figure 5 and the onready
// clause of Figure 8.
//
// Rank 0 streams numbered chunks into rank 1's segment; because the
// receive buffer is reused every iteration, the producer must wait for the
// consumer's ack notification before overwriting it. The consumer sends
// the ack right after processing each chunk (the optimal placement).
//
//	go run ./examples/producer-consumer
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/memory"
	"repro/internal/tasking"
)

const (
	iterations = 5
	N          = 8 * memory.F64Bytes // one chunk: 8 float64s
	dataNotif  = 10
	ackNotif   = 20
)

// must fails fast on simulator API errors: in this example any error is a
// programming bug (bad offset, unknown segment, invalid queue).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// fill sets every element of v to x.
func fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

func main() {
	fmt.Println("== Figure 5: extra wait-ack task ==")
	run(false)
	fmt.Println("== Figure 8: onready clause ==")
	run(true)
}

func run(useOnready bool) {
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAGASPI: true,
	}
	cluster.Run(cfg, func(env *cluster.Env) {
		seg, err := env.GASPI.SegmentCreate(0, N)
		must(err)
		v, err := memory.F64View(seg, 0, 8)
		must(err)
		tg, rt := env.TAGASPI, env.RT
		switch env.Rank {
		case 0:
			var ack int64
			for i := 0; i < iterations; i++ {
				if useOnready {
					// Figure 8: the ack wait rides on the writer task.
					rt.Submit(func(t *tasking.Task) {
						fill(v, float64(i+1))
						must(tg.WriteNotify(t, 0, 0, 1, 0, 0, N, dataNotif, int64(i+1), 0))
					}, tasking.WithDeps(tasking.In(seg, 0, N)),
						tasking.WithOnReady(func(t *tasking.Task) {
							tg.NotifyIwait(t, 0, ackNotif, nil)
						}),
						tasking.WithLabel("write data"))
				} else {
					// Figure 5: a dedicated task waits the ack first.
					rt.Submit(func(t *tasking.Task) {
						tg.NotifyIwait(t, 0, ackNotif, &ack)
					}, tasking.WithDeps(tasking.OutVal(&ack)), tasking.WithLabel("wait ack"))
					rt.Submit(func(t *tasking.Task) {
						fill(v, float64(i+1))
						must(tg.WriteNotify(t, 0, 0, 1, 0, 0, N, dataNotif, int64(i+1), 0))
					}, tasking.WithDeps(tasking.In(seg, 0, N), tasking.InVal(&ack)),
						tasking.WithLabel("write data"))
				}
				// The buffer is only reusable once the write completed
				// locally; the dependency system enforces it.
				rt.Submit(func(t *tasking.Task) { clear(v) },
					tasking.WithDeps(tasking.InOut(seg, 0, N)), tasking.WithLabel("reuse"))
			}
		case 1:
			// Seed the first ack: the receive buffer starts out free.
			rt.Submit(func(t *tasking.Task) { must(tg.Notify(t, 0, 0, ackNotif, 1, 0)) })
			var got int64
			for i := 0; i < iterations; i++ {
				rt.Submit(func(t *tasking.Task) {
					tg.NotifyIwait(t, 0, dataNotif, &got)
				}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&got)),
					tasking.WithLabel("wait data"))
				last := i == iterations-1
				rt.Submit(func(t *tasking.Task) {
					fmt.Printf("  consumer: chunk %d = %v\n", got, v[0])
					if !last {
						// Ack right after consuming (§IV-B).
						must(tg.Notify(t, 0, 0, ackNotif, 1, 0))
					}
				}, tasking.WithDeps(tasking.InOut(seg, 0, N), tasking.InVal(&got)),
					tasking.WithLabel("process+ack"))
			}
		}
	})
}
