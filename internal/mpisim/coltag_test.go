package mpisim

import (
	"testing"
)

// TestCollectiveTagNamespace pins the reserved-tag contract: every
// (epoch, round) tag is <= -2 (below every application tag) and unique across a deep epoch/round grid, so collective traffic can
// never match an application receive or another collective's round.
func TestCollectiveTagNamespace(t *testing.T) {
	seen := make(map[int]struct{})
	for epoch := 0; epoch < 256; epoch++ {
		for round := 0; round < CollectiveRounds; round++ {
			tag := CollectiveTag(epoch, round)
			if tag > -2 {
				t.Fatalf("CollectiveTag(%d,%d) = %d, must be <= -2", epoch, round, tag)
			}
			if _, dup := seen[tag]; dup {
				t.Fatalf("CollectiveTag(%d,%d) = %d already minted", epoch, round, tag)
			}
			seen[tag] = struct{}{}
		}
	}
}

// TestCollectiveTagRoundBounds requires a panic when a round index leaves
// the epoch's budget — silent aliasing into the next epoch's tag space
// was the overlap bug this allocator replaces.
func TestCollectiveTagRoundBounds(t *testing.T) {
	for _, round := range []int{-1, CollectiveRounds, CollectiveRounds + 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CollectiveTag(0,%d): no panic", round)
				}
			}()
			CollectiveTag(0, round)
		}()
	}
}

// TestCollectiveIsendRejectsAppTags requires the collective entry points
// to reject tags outside the reserved space, so a caller cannot
// accidentally route collective rounds over application tags.
func TestCollectiveIsendRejectsAppTags(t *testing.T) {
	withWorld(1, 2, testProfile(), func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		for _, tag := range []int{0, 7, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("CollectiveIsend(tag=%d): no panic", tag)
					}
				}()
				p.CollectiveIsend([]byte{1}, 1, tag)
			}()
		}
	})
}

// ringRound runs one payload-carrying collective round the way
// internal/collectives does: reserve an epoch, send this rank's id to the
// right neighbour on the epoch's reserved tag, receive the left neighbour's.
// It returns the epoch it drew.
func ringRound(t *testing.T, p *Proc) int {
	n := p.Size()
	epoch := p.CollectiveEpoch()
	tag := CollectiveTag(epoch, 0)
	left := Rank((int(p.Rank()) - 1 + n) % n)
	sr := p.CollectiveIsend([]byte{byte(p.Rank())}, Rank((int(p.Rank())+1)%n), tag)
	got := make([]byte, 1)
	st := p.CollectiveRecv(got, left, tag)
	p.Wait(sr)
	if st.Count != 1 || got[0] != byte(left) {
		t.Errorf("rank %d: ring round got %d bytes, payload %d, want 1 byte, payload %d", p.Rank(), st.Count, got[0], left)
	}
	return epoch
}

// TestCollectiveEpochSharedCounter verifies that Barrier and external
// CollectiveEpoch callers (internal/collectives) draw from one per-process
// counter: epochs reserved around a Barrier never repeat, which is what
// keeps the layered collectives' tags disjoint from Barrier's in-flight
// traffic.
func TestCollectiveEpochSharedCounter(t *testing.T) {
	withWorld(1, 2, testProfile(), func(p *Proc) {
		before := p.CollectiveEpoch()
		p.Barrier()
		round := ringRound(t, p)
		after := p.CollectiveEpoch()
		// One epoch for Barrier, one for the ring round.
		if round != before+2 || after != before+3 {
			t.Errorf("epochs before/round/after = %d/%d/%d, want consecutive draws around Barrier's one", before, round, after)
		}
	})
}

// TestAppTrafficImmuneToCollectives interleaves application
// point-to-point traffic — a receive posted before the collectives start —
// with Barrier and payload-carrying collective rounds, one of which travels
// from the receive's own source. The receive must match only the
// application send: a receive takes only its own tag, and reserved
// collective tags (<= -2) never equal an application tag, so no collective
// round may ever surface in an application receive.
func TestAppTrafficImmuneToCollectives(t *testing.T) {
	withWorld(1, 4, testProfile(), func(p *Proc) {
		// Post the application receive first so a mis-tagged collective
		// round would be free to match it.
		var appReq *Request
		buf := make([]byte, 4)
		if p.Rank() == 1 {
			appReq = p.Irecv(buf, 0, 9)
		}
		p.Barrier()
		ringRound(t, p)
		ringRound(t, p)
		p.Barrier()
		if p.Rank() == 0 {
			p.Send([]byte("app!"), 1, 9)
		}
		if p.Rank() == 1 {
			st := p.Wait(appReq)
			if st.Count != 4 || string(buf) != "app!" {
				t.Errorf("application receive got %d bytes %q, want %q — collective traffic leaked into the app tag space", st.Count, buf, "app!")
			}
		}
	})
}
