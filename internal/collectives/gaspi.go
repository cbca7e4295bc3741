// The blocking one-sided backend: every ring step is one
// gaspi_write_notify into the right neighbour's staging slot, awaited
// with gaspi_notify_waitsome (parking the rank main). Staging-slot reuse
// across epochs is made safe by explicit flow control (gaspi_notify), not
// by timing: ring writers hold same-parity epochs until the consumer's
// ack — see DESIGN.md §12.

package collectives

import (
	"fmt"

	"repro/internal/gaspisim"
	"repro/internal/memory"
)

// Segment layout (identical on every rank; all offsets derive from the
// collectively-agreed maxElems):
//
//	[0, 2*steps*chunkMax*8)  ring staging: per parity, one slot per step
//	[sendOff, +chunkMax*8)   local send slot (outgoing chunk)

// segSize returns the reserved segment's byte size: parity-doubled ring
// staging and the local send slot.
func segSize(chunkMax, steps int) int {
	return (2*steps + 1) * chunkMax * memory.F64Bytes
}

// ringSlotOff returns the staging offset of ring step g under the given
// epoch parity.
//
//tagalint:hotpath
func (c *Comm) ringSlotOff(parity, g int) int {
	return (parity*c.steps + g) * c.chunkMax * memory.F64Bytes
}

// sendOff returns the local send slot's offset.
//
//tagalint:hotpath
func (c *Comm) sendOff() int {
	return 2 * c.steps * c.chunkMax * memory.F64Bytes
}

// Notification-id namespace: each collective epoch owns a stride of
// steps+1 consecutive ids; within an epoch, ring arrivals use +g and the
// ring consumption ack +steps. Ids are never reused across epochs, so a
// laggard's stale notification can never alias a newer one.

// nidStride returns the per-epoch notification-id stride.
//
//tagalint:hotpath
func (c *Comm) nidStride() int { return c.steps + 1 }

// ringNid returns the arrival notification id of ring step g in epoch e.
//
//tagalint:hotpath
func (c *Comm) ringNid(epoch, g int) gaspisim.NotificationID {
	return gaspisim.NotificationID(epoch*c.nidStride() + g)
}

// ringAckNid returns the consumption-ack id of ring epoch e.
//
//tagalint:hotpath
func (c *Comm) ringAckNid(epoch int) gaspisim.NotificationID {
	return gaspisim.NotificationID(epoch*c.nidStride() + c.steps)
}

// consumeNotification awaits and resets one notification, validating the
// carried value against the expected epoch — a cheap corruption check on
// the staging protocol.
func (c *Comm) consumeNotification(nid gaspisim.NotificationID, epoch int) {
	id, ok := c.g.NotifyWaitSome(Seg, nid, 1, gaspisim.Block)
	if !ok {
		panic(fmt.Sprintf("collectives: notify_waitsome(%d) failed in epoch %d", nid, epoch))
	}
	if v, _ := c.g.NotifyReset(Seg, id); v != int64(epoch) {
		panic(fmt.Sprintf("collectives: notification %d carries epoch %d, want %d — staging protocol violated", id, v, epoch))
	}
}

// waitRingCredit blocks until the right neighbour has acknowledged
// consuming every staging slot of the previous same-parity ring epoch,
// so this epoch's writes cannot clobber unread data (the credit-2 flow
// control of DESIGN.md §12).
func (c *Comm) waitRingCredit(epoch int) {
	if prev := c.lastRing[epoch&1]; prev >= 0 {
		c.consumeNotification(c.ringAckNid(prev), prev)
	}
}

// gaspiRing runs the ring schedule of one blocking one-sided allreduce —
// reduce-scatter then allgather — over the working vector out.
func (c *Comm) gaspiRing(epoch int, out []float64, op Op) {
	n, me := c.n, c.rank
	chunk := len(out) / n
	right := gaspisim.Rank(mod(me+1, n))
	left := gaspisim.Rank(mod(me-1, n))
	parity := epoch & 1
	chunkBytes := chunk * memory.F64Bytes
	segB := c.seg.Bytes()

	c.waitRingCredit(epoch)
	opStart := c.clk.Now()
	phaseStart := opStart
	for g := 0; g < c.steps; g++ {
		sc := ringSendChunk(me, n, g)
		copy(memory.Float64s(segB[c.sendOff():][:chunkBytes]), out[sc*chunk:(sc+1)*chunk])
		nid := c.ringNid(epoch, g)
		c.flowStart(c.clk.Now(), stepFlowID(epoch, g, int(right)))
		must(c.g.WriteNotify(Seg, c.sendOff(), right, Seg, c.ringSlotOff(parity, g),
			chunkBytes, nid, int64(epoch), commQueue, nil))
		c.g.Wait(commQueue) // local completion: the send slot is reusable

		c.consumeNotification(nid, epoch)
		c.flowFinish(c.clk.Now(), stepFlowID(epoch, g, me))
		rc := ringRecvChunk(me, n, g)
		slot := memory.Float64s(segB[c.ringSlotOff(parity, g):][:chunkBytes])
		dst := out[rc*chunk : (rc+1)*chunk]
		if g < n-1 {
			combine(dst, slot, op)
		} else {
			copy(dst, slot)
		}
		c.compute(chunk)
		if g == n-2 {
			c.span("coll:reduce_scatter", phaseStart, c.clk.Now(), int64(epoch))
			phaseStart = c.clk.Now()
		}
	}
	c.span("coll:allgather", phaseStart, c.clk.Now(), int64(epoch))
	// Acknowledge to the writer of my staging slots (the left neighbour)
	// that every slot of this epoch is consumed.
	must(c.g.Notify(left, Seg, c.ringAckNid(epoch), int64(epoch), commQueue, nil))
	c.g.Wait(commQueue)
	c.lastRing[parity] = epoch
	c.latency("coll.allreduce", c.clk.Now()-opStart)
}
