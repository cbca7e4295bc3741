// Fixture for the lockcross analyzer. Imports the real simulator packages
// so the analyzer is exercised against the true types.
package lockcrosstest

import (
	"sync"

	"repro/internal/mpisim"
)

type server struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	val int
}

func (s *server) sendWhileLocked() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while holding s.mu"
	s.mu.Unlock()
}

func (s *server) recvUnderDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while holding s.mu .released only by defer."
}

func (s *server) cleanHandoff() {
	s.mu.Lock()
	v := s.val
	s.mu.Unlock()
	s.ch <- v // ok: lock released first
}

func (s *server) mpiWaitWhileLocked(p *mpisim.Proc, req *mpisim.Request) {
	s.mu.Lock()
	p.Wait(req) // want "mpisim.Proc.Wait while holding s.mu"
	s.mu.Unlock()
}

func (s *server) selectWhileLocked() {
	s.mu.Lock()
	select { // want "select while holding s.mu"
	case v := <-s.ch:
		s.val = v
	case s.ch <- s.val:
	}
	s.mu.Unlock()
}

func (s *server) selectWithDefaultIsFine() {
	s.mu.Lock()
	select {
	case v := <-s.ch:
		s.val = v
	default:
	}
	s.mu.Unlock()
}

func (s *server) rlockAcrossBarrier(p *mpisim.Proc) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	p.Barrier() // want "mpisim.Proc.Barrier while holding s.rw .released only by defer."
}

func (s *server) funcLitIsSeparate() {
	s.mu.Lock()
	f := func() {
		s.ch <- 1 // ok: the literal runs later, without the lock
	}
	s.mu.Unlock()
	f()
}

func (s *server) rangeOverChannel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "range over channel while holding s.mu .released only by defer."
		s.val += v
	}
}

func (s *server) unlockedAfterBranch(p *mpisim.Proc) {
	s.mu.Lock()
	if s.val > 0 {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	p.Barrier() // ok: every path released the lock
}

func (s *server) blockInsideClosure(p *mpisim.Proc) func() {
	// Nested literals get their own scan: a lock taken inside the closure
	// is crossed inside the closure.
	return func() {
		s.mu.Lock()
		p.Barrier() // want "mpisim.Proc.Barrier while holding s.mu"
		s.mu.Unlock()
	}
}

func (s *server) blockInsideDoublyNestedClosure() func() {
	return func() {
		f := func() {
			s.mu.Lock()
			s.ch <- 1 // want "channel send while holding s.mu"
			s.mu.Unlock()
		}
		f()
	}
}
