#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# ThreadSanitizer build running the concurrency-sensitive runtime and fault
# tests (program interpreter waves on the pooled driver, channel shutdown,
# checkpoint recovery, cross-backend parity) plus the tests of the one
# process pool that the planner, the plan service and the runtime share
# (parallel_for's entry protocol, planning that starts no thread), the
# parallel planner-search determinism tests (every default search fans out
# over that pool), the kernel/pool substrate tests (row-block fan-out,
# concurrent TensorPool), and the plan-service suites (single-flight cache,
# stage-cost leases, concurrent request determinism), then an
# AddressSanitizer+UBSan build running the process-pool, planner,
# cascade-DP, stage-cost and plan-service suites plus the interpreter,
# channel, trainer, fault, elastic, equivalence, parity, interleaved and
# reshard suites, the check macros and the
# program/checkpoint/profile parsers, a socket-level request-storm smoke of
# dpipe_plan_serve, and finally the repository benchmark's smoke test
# (dpbench/), which builds the benchmark from these sources so an API it
# uses cannot be cut unnoticed.
# Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: standard build + ctest (dpipe_tests, dpipe_alloc_tests) =="
cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: scalar-forced kernel pass (DPIPE_SIMD=scalar) =="
# The portable fallback must stay green on machines without AVX2: force the
# dispatch level to scalar and rerun the kernel, pool, SIMD, and trajectory
# suites against it.
DPIPE_SIMD=scalar ./build/tests/dpipe_tests \
  --gtest_filter='Kernels.*:TensorPool.*:Trajectory.*:RngSeed.*:SimdDispatch.*:SimdParity.*:Roofline.*:Eltwise*'

echo "== tier-1: ThreadSanitizer build (runtime + fault + service tests) =="
cmake -B build-tsan -S . -DDPIPE_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target dpipe_tests
# TSan builds resolve the automatic wave executor to the pooled driver, so
# every wave here runs its tasks on the process pool's workers with
# interleavings for TSan to check.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dpipe_tests \
  --gtest_filter='Channel.*:PipelineTrainer.*:Equivalence.*:Fault.*:ParallelFor.*:ProcessPool.*:PlannerSearch.*:Kernels.*:TensorPool.*:Trajectory.*:RngSeed.*:SimdDispatch.*:SimdParity.*:Interpreter.*:Parity.*:Interleaved.*:Elastic.*:Reshard.*:CheckpointIo.*:PlanFingerprint.*:StageCostStore.*:PlanCache.*:PlanStore.*:PlanService.*:PlanProtocol.*:Eltwise*'

echo "== tier-1: ASan+UBSan build (planner, service, runtime + fault tests) =="
cmake -B build-asan -S . -DDPIPE_SANITIZE=address,undefined
cmake --build build-asan -j"$(nproc)" --target dpipe_tests
# ErrorMacros, Serialize, CheckpointIo and ProfileDb put the out-of-line
# check thrower and the parsers' rejection paths under ASan and UBSan.
# Equivalence, Parity, Interleaved and Reshard run the preamble, the
# self-conditioning and training waves and interleaved programs, so every
# wave's owned channels, barriers and outputs are checked too.
# dpipe_alloc_tests is not built here: it replaces the global operator new,
# which the sanitizers own, so it runs only in the standard build's ctest.
./build-asan/tests/dpipe_tests \
  --gtest_filter='ParallelFor.*:ProcessPool.*:PlannerSearch.*:Bidirectional.*:StageCostCache.*:StageCostStore.*:PlanFingerprint.*:PlanService.*:Interpreter.*:Channel.*:PipelineTrainer.*:Fault.*:Elastic.*:ErrorMacros.*:Serialize.*:CheckpointIo.*:ProfileDb.*:ProfileDbInterp.*:Equivalence.*:Parity.*:Interleaved.*:Reshard.*'

echo "== tier-1: interleaved schedule smoke =="
# The interleaved family exercises multi-virtual-stage device timelines on
# the functional runtime; its replay must show clean cross-backend op-order
# parity. (Interpreter.WaveExecSerialMatchesThreadedBitExact covers the
# serial driver and the pooled one at every wave width on an interleaved
# program.)
./build/tools/dpipe_run --schedule=interleaved \
  --vstages=2 --backend=real 2 4 8 1 2 | grep -q "parity: OK"
./build/tools/dpipe_run --schedule=interleaved --vstages=2 --backend=sim \
  2 4 8 1 2 > /dev/null

echo "== tier-1: plan-server request-storm smoke (socket, concurrent clients) =="
# Three concurrent clients hammer one dpipe_plan_serve over a Unix socket:
# 6 requests over 2 distinct plans, so the summary must show cache hits
# and at most 2 planner runs.
STORM_DIR="$(mktemp -d)"
STORM_SOCK="$STORM_DIR/dpipe.sock"
./build/tools/dpipe_plan_serve --socket "$STORM_SOCK" \
  --store "$STORM_DIR/plans" --max-requests 6 > "$STORM_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
  [ -S "$STORM_SOCK" ] && break
  sleep 0.3
done
for client in 1 2 3; do
  (
    ./build/tools/dpipe_plan sd21 1 256 --connect "$STORM_SOCK" &&
    ./build/tools/dpipe_plan controlnet 1 256 --connect "$STORM_SOCK"
  ) > "$STORM_DIR/client$client.log" 2>&1 &
done
wait "$SERVE_PID"
wait  # Reap the client subshells before inspecting their logs.
cat "$STORM_DIR/serve.log"
grep -q "cache hit" "$STORM_DIR/serve.log"
grep -q "served from plan cache\|planned by server" "$STORM_DIR/client1.log"
rm -rf "$STORM_DIR"

echo "== tier-1: benchmark smoke (dpbench builds, runs, gates pass) =="
python3 dpbench/test_smoke.py

echo "tier-1 OK"
