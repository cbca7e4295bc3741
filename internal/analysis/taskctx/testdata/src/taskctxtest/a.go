// Fixture for the taskctx analyzer.
package taskctxtest

import (
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/mpisim"
	"repro/internal/tagaspi"
	"repro/internal/tampi"
	"repro/internal/tasking"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

func nilTaskToTagaspi(l *tagaspi.Library) {
	_ = l.Notify(nil, 1, 0, 0, 1, 0) // want "nil .tasking.Task passed to tagaspi.Notify"
}

func nilTaskToTampi(l *tampi.Library, req *mpisim.Request) {
	l.Iwait(nil, req) // want "nil .tasking.Task passed to tampi.Iwait"
}

func realTaskIsFine(l *tagaspi.Library, t *tasking.Task) {
	_ = l.Notify(t, 1, 0, 0, 1, 0) // ok
}

func asyncOnreadyIsFine(rt *tasking.Runtime, tg *tagaspi.Library) {
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		tg.NotifyIwait(t, 0, 0, nil) // ok: registers an event, never blocks
	}))
}

func blockingWaitInOnready(rt *tasking.Runtime, mpi *mpisim.Proc, req *mpisim.Request) {
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		mpi.Wait(req) // want "mpisim.Proc.Wait in an onready callback"
	}))
}

func computeInOnready(rt *tasking.Runtime) {
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		t.Compute(10) // want "tasking.Task.Compute in an onready callback"
	}))
}

func channelOpsInOnready(rt *tasking.Runtime, ch chan int) {
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		<-ch // want "channel receive in an onready callback"
	}))
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		ch <- 1 // want "channel send in an onready callback"
	}))
}

func blockingInBodyIsFine(rt *tasking.Runtime, mpi *mpisim.Proc, req *mpisim.Request) {
	rt.Submit(func(t *tasking.Task) {
		mpi.Wait(req) // ok: the body owns a core and may block
	})
}

func nestedLiteralIsNotTheCallback(rt *tasking.Runtime, clk *vclock.VirtualClock, ch chan int) {
	rt.Submit(func(t *tasking.Task) {}, tasking.WithOnReady(func(t *tasking.Task) {
		clk.Go(func() {
			<-ch // ok: runs on its own goroutine, not in onready
		})
	}))
}

// A clock callback runs on the goroutine advancing the clock.
func sleepInClockCallback(clk *vclock.VirtualClock) {
	clk.InitEvent(new(vclock.Event), func() {
		clk.Sleep(10) // want "vclock.VirtualClock.Sleep in a step or clock callback"
	})
}

// An event the caller owns runs its callback the same way.
type ownedEvent struct {
	ev  vclock.Event
	out chan int
}

func (o *ownedEvent) fire() {
	o.out <- 1 // want "channel send in a step or clock callback"
}

func blockInOwnedEventCallback(clk *vclock.VirtualClock, o *ownedEvent) {
	clk.InitEvent(&o.ev, o.fire)
	clk.InitEvent(new(vclock.Event), func() {
		clk.Sleep(10) // want "vclock.VirtualClock.Sleep in a step or clock callback"
	})
}

// A stream's callback runs once per item, on the goroutine advancing the
// clock, like an event's.
func sleepInStreamCallback(clk *vclock.VirtualClock, s *vclock.Stream[int]) {
	vclock.InitStream(clk, s, func(n int) {
		clk.Sleep(10) // want "vclock.VirtualClock.Sleep in a step or clock callback"
	})
}

// A select with a default clause polls its channels and cannot block;
// (*vclock.Parker).Unpark wakes its goroutine this way from inside callbacks.
func channelOpsInClockCallback(clk *vclock.VirtualClock, wake chan struct{}, in chan int) {
	clk.InitEvent(new(vclock.Event), func() {
		select {
		case wake <- struct{}{}: // ok
		default:
		}
		select {
		case v := <-in: // ok
			in <- v // want "channel send in a step or clock callback"
		default:
		}
	})
	clk.InitEvent(new(vclock.Event), func() {
		wake <- struct{}{} // want "channel send in a step or clock callback"
	})
	clk.InitEvent(new(vclock.Event), func() {
		select { // want "select in a step or clock callback"
		case wake <- struct{}{}: // want "channel send in a step or clock callback"
		case <-in: // want "channel receive in a step or clock callback"
		}
	})
}

// A fabric delivery handler is a clock callback as well: Register takes the
// function the clock will run at each delivery's instant.
func blockingFabricHandler(f *fabric.Fabric, mpi *mpisim.Proc, req *mpisim.Request, got chan int) {
	f.Register(0, fabric.ClassMPI, func(m *fabric.Message) {
		got <- m.Size // want "channel send in a step or clock callback"
	})
	h := func(m *fabric.Message) {
		mpi.Wait(req) // want "mpisim.Proc.Wait in a step or clock callback"
	}
	f.Register(1, fabric.ClassMPI, h)
}

// The pass a polling service starts is a service step itself.
func blockingPass(rt *tasking.Runtime, done chan int) {
	rt.NewService("pass", 10, nil, nil).Start(func() {
		done <- 1 // want "channel send in a step or clock callback"
	})
}

// The nothing-to-poll predicate a library hands its service runs at the
// end of a pass, as a step.
func blockingQuiet(rt *tasking.Runtime, p *gaspisim.Proc) {
	rt.NewService("quiet", 10, func() bool {
		p.Wait(0) // want "gaspisim.Proc.Wait in a step or clock callback"
		return true
	}, nil)
}

// The resume hook re-enters a pass at a dormant service's wake, as a step.
func blockingResume(rt *tasking.Runtime, p *gaspisim.Proc, next func()) {
	rt.NewService("resume", 10, nil, func(int) func() {
		p.Wait(0) // want "gaspisim.Proc.Wait in a step or clock callback"
		return next
	})
}

// poller is shaped like the task-aware libraries: its steps are method
// values bound to fields once, so arming allocates nothing.
type poller struct {
	svc             *tasking.Service
	p               *gaspisim.Proc
	comp            []gaspisim.CompletedRequest
	drainFn, nextFn func()
}

func startPoller(rt *tasking.Runtime, p *gaspisim.Proc) *poller {
	l := &poller{p: p, svc: rt.NewService("fixture", 10, nil, nil)}
	l.drainFn = l.drain
	l.nextFn = l.blockingNext
	l.svc.Start(l.poll)
	return l
}

func (l *poller) poll() {
	l.svc.After(l.p.RequestTestCost(), l.drainFn) // ok: the cost is an armed event
}

func (l *poller) drain() {
	l.comp = l.p.RequestTest(0, 8, l.comp[:0]) // ok: never blocks
	if len(l.comp) == 0 {
		l.p.Clock().Go(func() {
			l.p.Wait(0) // ok: blocking work hops onto its own goroutine
			l.svc.Done(0)
		})
		return
	}
	l.svc.After(1, l.nextFn)
}

func (l *poller) blockingNext() {
	l.flush() // the step itself is clean; what it calls is not
	l.svc.Done(len(l.comp))
}

func (l *poller) flush() {
	l.comp = l.p.RequestWait(0, 8, gaspisim.Block) // want "gaspisim.Proc.RequestWait in a step or clock callback"
}

// A step task's body and the steps it names with Then run like service
// steps: a blocking call there stalls the clock.
func blockingStepTask(rt *tasking.Runtime, clk *vclock.VirtualClock, res *vsync.Resource,
	p *gaspisim.Proc, mpi *mpisim.Proc, tg *tagaspi.Library, buf []byte) {
	rt.Submit(func(t *tasking.Task) {
		t.Compute(10) // want "tasking.Task.Compute in a step or clock callback"
	}, tasking.NonBlocking())
	rt.Submit(func(t *tasking.Task) {
		clk.Sleep(10) // want "vclock.VirtualClock.Sleep in a step or clock callback"
		t.Then(10, func() {
			res.Use(10)                                      // want "vsync.Resource.Use in a step or clock callback"
			_ = p.Submit(gaspisim.Operation{})               // want "gaspisim.Proc.Submit in a step or clock callback"
			_ = mpi.Isend(buf, 1, 0)                         // want "mpisim.Proc.Isend in a step or clock callback"
			clk.Parker().Park()                              // want "vclock.Parker.Park in a step or clock callback"
			_ = rt.Now()                                     // want "tasking.Runtime.Now in a step or clock callback"
			_ = tg.WriteNotify(t, 0, 0, 1, 0, 0, 8, 0, 1, 0) // ok: a step task's post never blocks
		})
	}, tasking.WithLabel("steps"), tasking.NonBlocking())
	rt.Submit(func(t *tasking.Task) {
		t.Compute(10) // ok: a goroutine body may block
		mpi.Wait(mpi.Irecv(buf, 1, 0))
	})
}
