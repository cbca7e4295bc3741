package heat

import (
	"testing"

	"repro/internal/fabric"
)

// Under injected faults the numerics must stay bit-exact: MPI-class drops
// retransmit transparently, and every GASPI-class failure is retried by
// TAGASPI while the task dependency system keeps the source halos frozen
// until the resubmission lands (DESIGN.md §9).
func TestTAGASPIMatchesSerialUnderFaults(t *testing.T) {
	p := verifyParams
	cfg := hybridCfg(2, 4, true)
	cfg.Seed = 3
	cfg.Faults = fabric.FaultPlan{MPIDrop: 0.3, GASPIDrop: 0.3}
	strips, res := gather(cfg, p, RunTAGASPI)
	checkAgainstSerial(t, assemble(strips), p)
	if res.Fabric.Faults == 0 {
		t.Fatal("Drop=0.3 injected no faults; the plan did not reach the fabric")
	}
}

// The MPI-only variant rides the fabric's transparent retransmission alone;
// it too must stay bit-exact, just slower.
func TestMPIOnlyMatchesSerialUnderFaults(t *testing.T) {
	p := verifyParams
	cfg := mpiOnlyConfig(2)
	cfg.Seed = 3
	cfg.Faults = fabric.FaultPlan{MPIDrop: 0.3}
	strips, res := gather(cfg, p, RunMPIOnly)
	checkAgainstSerial(t, assemble(strips), p)
	if res.Fabric.Faults == 0 {
		t.Fatal("Drop=0.3 injected no faults; the plan did not reach the fabric")
	}
}
