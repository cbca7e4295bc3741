#!/usr/bin/env sh
# Tier-1 verification gate. Run from anywhere; it cds to the repo root.
#
#   ./scripts/ci.sh          # full gate
#   CI_SHORT=1 ./scripts/ci.sh   # skip the full -race pass (fast local check)
#
# The gate is: build everything, run the standard vet analyzers, require
# gofmt-clean sources (testdata included), run the repository's own
# invariant analyzers (tagalint), then the test suite under the race
# detector, then the fuzz, allocation, host-time and bench-smoke gates.
# The simulator is heavily concurrent (one goroutine per rank main plus one
# per running goroutine task body; step bodies run on clock callbacks), so
# -race is part of the gate, not an optional extra — see EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d -t ci.XXXXXX)" # every file the gates write
trap 'rm -rf "$tmp"' EXIT

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
test -z "$(gofmt -l .)"

# tagalint: the repository's own analyzers. CI fails on findings AND on
# stale //lint:ignore directives (a suppression that silences nothing is
# misleading documentation).
echo "== go run ./cmd/tagalint -stale-ignores=error ./..."
go run ./cmd/tagalint -stale-ignores=error ./...

# A race step the known drift cannot mask, run in both modes: the packages
# where task bodies, core grants and polling services hand work between
# goroutines, the MPI and GASPI layers whose delivery callbacks and rank
# goroutines share matching and queue state, and the apps, whose step-task
# kernels run on clock callbacks and granting goroutines, three times
# each. The full -race pass below is skipped under CI_SHORT=1; no
# same-instant drift turns it red any more (ROADMAP item 1).
echo "== go test -race -count=3 (tasking, tagaspi, tampi, cluster, mpisim, gaspisim, apps)"
go test -race -count=3 ./internal/tasking ./internal/tagaspi ./internal/tampi ./internal/cluster \
    ./internal/mpisim ./internal/gaspisim ./internal/apps/...

if [ "${CI_SHORT:-0}" = "1" ]; then
    echo "== go test ./... (CI_SHORT=1: race detector skipped)"
    go test ./...
else
    echo "== go test -race ./..."
    go test -race ./...
fi

# Fuzz oracles, ten seconds of new inputs each (their seed corpora already
# ran inside the test pass above). A failing input is written under the
# package's testdata/fuzz/ directory — commit it with the fix.
#   FuzzMatchOrder (DESIGN.md §14): the per-source matching engine against
#     a linear-scan reference over generated post/arrival sequences.
#   FuzzTimerOrder (DESIGN.md §11): one clock running generated programs of
#     callback events (lanes and heap), owner streams (in-order, mid-FIFO,
#     ahead-of-head and self-pushes, drained and refilled), sleeps, timed
#     parks and early Unparks against a sorted (deadline, seq) list.
#   FuzzPayloadSnapshot (DESIGN.md §15): eager and rendezvous sends, puts
#     and write-notifies over buffers rewritten only after completion;
#     every receive, window and segment range must hold the bytes the
#     buffer had when the operation was posted.
#   FuzzJitterSequence (DESIGN.md §8): the lazily seeded jitter source
#     (internal/fabric/lfg.go) against math/rand, draw for draw.
#   FuzzSweepOrder (DESIGN.md §15): heat's wavefront Gauss–Seidel kernel
#     against the row-major loop, bit for bit, over generated strips and
#     sub-ranges with NaN payloads, −0, ±Inf and subnormals among the values.
for target in FuzzMatchOrder:mpisim FuzzTimerOrder:vclock \
    FuzzPayloadSnapshot:memory FuzzJitterSequence:fabric FuzzSweepOrder:apps/heat; do
    echo "== fuzz: ${target%%:*} in internal/${target#*:}, 10 s"
    go test -run '^$' -fuzz "^${target%%:*}\$" -fuzztime 10s "./internal/${target#*:}"
done

# Allocation-regression gates: the fabric send path (Send through the
# clock-event steps to the handler, flat and over a three-hop route of a
# 2x3 mesh) must stay within its committed
# per-message budget (internal/fabric.CourierAllocBudget); a mesh link's
# stream that never drains must stay at its backlog high-water mark, not
# grow with the message count; a nil-Collector
# instrumentation site and an idle pass of the TAMPI and TAGASPI polling
# services must allocate nothing, and so must a TAMPI service's going
# dormant inside a run and waking on an Iwait, and a TAGASPI one's beyond
# the waking notification's own; Tracer.Events must copy N events in one
# allocation of N; 256 sends of one unchanged buffer must share one
# payload snapshot in mpisim and gaspisim; a pending task with five
# dependencies must keep no more heap than
# internal/tasking.PendingTaskBudget; bursts of Submits, each followed by
# a TaskWait, must allocate only the task records and the bodies'
# closures (no parker per wait, no per-Submit copy of the options or the
# dependencies, reused or written inline through a tasking.DepList); a
# jitterer after 100 draws must keep
# no more than internal/fabric.JitterStateBudget; a 1,024-rank dissemination
# must release every fabric ordering domain and allocate no more records
# than internal/fabric.DomainRecordBudget; a timed segment of 1 GiB logical
# size must allocate less than 1 MiB (one slot, the apps' timed mode); and
# a timed TAGASPI miniAMR job must
# allocate no more than internal/apps/miniamr.HeapBytesPerMessageBudget
# per message, and a Verify miniAMR pack and unpack of one message must
# allocate nothing (they work in the message bytes through a view), and
# so must a Verify heat sweep of cmd/bench's 16x128 and 64x64 blocks. Run
# without -race on purpose — race instrumentation inflates allocation
# counts and heap sizes, so the gates skip themselves under the race build.
echo "== allocation-regression gates: fabric send-path budget (plain + flow-stamped + multi-hop) + link-stream footprint + nil-Collector zero-alloc + one-allocation Events + idle polling pass and dormancy zero-alloc + unchanged-buffer snapshots + pending-task footprint + Submit-burst allocations + jitter-state footprint + domain-record footprint + one-slot timed segment + timed miniAMR heap per message + zero-alloc Verify halo pack/unpack + zero-alloc Verify heat sweep"
go test -run 'TestCourierAllocBudget|TestCourierAllocBudgetInstrumented|TestCourierAllocBudgetMultiHop|TestLinkStreamFootprint|TestJitterStateFootprint|TestDomainFootprint' ./internal/fabric
go test -run 'TestUnchangedBufferSnapshotsOnce' ./internal/mpisim ./internal/gaspisim
go test -run 'TestPendingTaskFootprint|TestSubmitBurstAllocs' ./internal/tasking
go test -run 'TestTimedSegmentHoldsOneSlot' ./internal/memory
go test -run 'TestTimedHeapPerMessage|TestVerifyHaloZeroAlloc' ./internal/apps/miniamr
go test -run 'TestVerifySweepZeroAlloc' ./internal/apps/heat
go test -run 'TestNilRecorderZeroAlloc|TestNilHalvesCollectorZeroAlloc|TestEventsAllocatesOnce' ./internal/obs
go test -run 'TestIdlePollPassZeroAlloc|TestDormancyZeroAlloc' ./internal/cluster

# Host-time regression gate at scale: one paper-scale Gauss-Seidel point
# (the Fig. 9 Scale-preset TAGASPI run, 256 nodes / 512 hybrid ranks)
# must stay inside the committed per-message host-time and heap budgets
# (internal/figures.HostNsPerMessageBudget, HostBytesPerMessageBudget) and a
# goroutine budget linear
# in ranks — the wall-clock analogue of the alloc gate, also run without
# -race. The committed BENCH_host.json carries the matching
# "9-scale"/"10-scale" series (regenerate: go run ./cmd/figures -scale
# -json, then splice the rows; see EXPERIMENTS.md "Scaling past the
# paper").
echo "== host-time regression gate: per-message budget at the 256-node scale point + the multi-hop incast point"
go test -run 'TestPerMessageHostBudget|TestMultiHopHostBudget' ./internal/figures
grep -q '"fig":"10-scale"' BENCH_host.json
grep -q '"fig":"9-scale","series":"TAGASPI","x":256' BENCH_host.json
grep -q '"fig":"coll-scale","series":"TAGASPI task-aware","x":64' BENCH_host.json

# Bench smoke: a quick figure run with host times included must produce a
# valid BENCH_host.json-shaped document (the committed BENCH_host.json is
# the curated full-quick baseline).
echo "== bench smoke: host-time JSON document"
bench_json="$tmp/bench-host.json"
go run ./cmd/figures -fig 9 -quick -json "$bench_json" > /dev/null
grep -q '"schema": "bench_figures/v1"' "$bench_json"
grep -q '"host_ms":' "$bench_json"

# No figure "run twice, cmp" gate: TestCommittedBaselineByteIdentical (test
# pass above) requires every Quick figure to equal the committed bytes, so
# two runs equal each other. The gates without a committed baseline (two
# seeded -faults runs print the same bytes; concurrent instrumented runs
# write complete, valid traces; the blame report is the same with or
# without a trace and when re-derived from the trace file) are
# cmd/app's TestDeterminismGates, also in the test pass above.

# Fault recovery under -race: a two-rank cluster through dropped GASPI
# messages and TAGASPI's repair-and-retry recovery (DESIGN.md §9).
echo "== fault recovery under -race: GASPI drops and repair"
go test -race -run TestGASPIDropRecovery ./internal/cluster

echo "ci: OK"
