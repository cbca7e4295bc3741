package memory_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/memory"
	"repro/internal/mpisim"
	"repro/internal/vclock"
)

// wireBits are float64 bit patterns no arithmetic produces by accident:
// quiet and signalling NaNs with payloads and either sign, both zeros and
// infinities, the subnormal extremes and the finite extremes.
var wireBits = []uint64{
	0x7ff8000000000001, // quiet NaN, payload 1
	0xfff8dead0000beef, // negative quiet NaN with a payload
	0x7ff0000000000001, // signalling NaN
	0x8000000000000000, // −0
	0x0000000000000000, // +0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // −Inf
	0x0000000000000001, // smallest subnormal
	0x000fffffffffffff, // largest subnormal
	0x800fffffffffffff, // negative subnormal
	math.Float64bits(math.MaxFloat64),
	math.Float64bits(-math.SmallestNonzeroFloat64),
}

// TestViewPayloadBitsCrossRanks writes wireBits through a float64 view on
// rank 0 and reads them through a view on rank 1 after an MPI eager send,
// an MPI rendezvous send and a GASPI write_notify: every value arrives bit
// for bit, because payloads move as bytes and both views use the host's
// byte order.
func TestViewPayloadBitsCrossRanks(t *testing.T) {
	const threshold = 256 // eager up to here, rendezvous above
	n := len(wireBits)
	short := n * memory.F64Bytes
	long := 4 * threshold // the pattern repeated past the threshold
	if short > threshold {
		t.Fatalf("eager payload of %d bytes exceeds the %d-byte threshold", short, threshold)
	}
	prof := fabric.Profile{
		Name:               "view",
		InterNodeLatency:   time.Microsecond,
		IntraNodeLatency:   100 * time.Nanosecond,
		InterNodeBandwidth: 1e9,
		IntraNodeBandwidth: 2e9,
		EagerThreshold:     threshold,
		RDMAEmulFactor:     1,
	}
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), prof)
	mw, gw := mpisim.NewWorld(fab, 1), gaspisim.NewWorld(fab, 1, 1)
	got := map[string][]float64{}
	var wg sync.WaitGroup
	wg.Add(2)
	clk.Launch(2)(func(r int) {
		defer wg.Done()
		mp, gp := mw.Proc(mpisim.Rank(r)), gw.Proc(gaspisim.Rank(r))
		seg, err := gp.SegmentCreate(0, long)
		if err != nil {
			t.Error(err)
			return
		}
		if r == 0 {
			v, err := memory.F64View(seg, 0, long/memory.F64Bytes)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range v {
				v[i] = math.Float64frombits(wireBits[i%n])
			}
			mp.Send(seg.Bytes()[:short], 1, 0)
			mp.Send(seg.Bytes(), 1, 1)
			if err := gp.WriteNotify(0, 0, 1, 0, 0, long, 0, 1, 0, nil); err != nil {
				t.Error(err)
			}
			gp.Wait(0)
			return
		}
		eager, rendezvous := make([]byte, short), make([]byte, long)
		mp.Recv(eager, 0, 0)
		mp.Recv(rendezvous, 0, 1)
		gp.NotifyWaitSome(0, 0, 1, gaspisim.Block)
		written, err := memory.F64View(seg, 0, long/memory.F64Bytes)
		if err != nil {
			t.Error(err)
			return
		}
		got["eager send"] = memory.Float64s(eager)
		got["rendezvous send"] = memory.Float64s(rendezvous)
		got["write_notify"] = written
	})
	wg.Wait()
	for path, v := range got {
		for i, x := range v {
			if b := math.Float64bits(x); b != wireBits[i%n] {
				t.Errorf("%s: element %d arrived as %#016x, sent %#016x", path, i, b, wireBits[i%n])
			}
		}
	}
	if len(got) != 3 {
		t.Fatalf("rank 1 read %d of 3 payloads", len(got))
	}
}
