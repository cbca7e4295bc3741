// Quickstart: the smallest complete TAGASPI program.
//
// Two ranks run on the virtual clock. Rank 0 writes a message into rank
// 1's segment with tagaspi_write_notify from inside a task; rank 1 waits
// for the notification asynchronously with tagaspi_notify_iwait and a
// successor task consumes the data — the Figure 3 / Figure 4 flow of the
// paper.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/tasking"
)

const greeting = "hello from a one-sided task-aware write"

func main() {
	cfg := cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 4,
		Profile:     fabric.ProfileIdeal(),
		WithTasking: true, WithTAGASPI: true,
	}
	cluster.Run(cfg, func(env *cluster.Env) {
		const N = 64
		seg, err := env.GASPI.SegmentCreate(0, N)
		if err != nil {
			panic(err)
		}
		switch env.Rank {
		case 0:
			copy(seg.Bytes(), greeting)
			// The writer task declares the source buffer as an input
			// dependency: TAGASPI releases it when the write completes
			// locally, so only successor tasks may reuse it.
			env.RT.Submit(func(t *tasking.Task) {
				err := env.TAGASPI.WriteNotify(t,
					0, 0, // local segment, offset
					1,       // destination rank
					0, 0, N, // remote segment, offset, size
					7, 1, // notification id and value
					0) // queue
				if err != nil {
					panic(err)
				}
				// seg cannot be reused here! (Figure 3)
			}, tasking.WithDeps(tasking.In(seg, 0, N)), tasking.WithLabel("write data"))
			env.RT.Submit(func(t *tasking.Task) {
				fmt.Println("rank 0: write completed locally, buffer reusable")
			}, tasking.WithDeps(tasking.InOut(seg, 0, N)), tasking.WithLabel("reuse"))
		case 1:
			var notified int64
			env.RT.Submit(func(t *tasking.Task) {
				env.TAGASPI.NotifyIwait(t, 0, 7, &notified)
				// The data is NOT here yet; only successors may read it.
			}, tasking.WithDeps(tasking.Out(seg, 0, N), tasking.OutVal(&notified)),
				tasking.WithLabel("wait data"))
			env.RT.Submit(func(t *tasking.Task) {
				fmt.Printf("rank 1: notified (value %d): %q\n",
					notified, string(seg.Bytes()[:len(greeting)]))
			}, tasking.WithDeps(tasking.In(seg, 0, N), tasking.InVal(&notified)),
				tasking.WithLabel("process"))
		}
	})
}
