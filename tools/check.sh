#!/usr/bin/env bash
# One-shot verification gate: warning-clean build (-Werror), full test
# suite, and clang-tidy lint (skipped with a notice when the binary is
# absent). Intended both for CI and as the local pre-push check.
#
# Usage:
#   tools/check.sh                # build + ctest + lint
#   SANITIZE=thread tools/check.sh  # same, built under TSan
#   SANITIZE=address tools/check.sh # same, under ASan+UBSan
#   CHAOS=1 tools/check.sh          # additionally re-run the `chaos`
#                                   # label (seeded fault-injection soak)
#                                   # and the `linkchaos` label (the
#                                   # partitioned MaxRing link soak:
#                                   # mid-run link death, failover,
#                                   # serving through it)
#   PERF=1 tools/check.sh           # additionally run the perf benches
#                                   # and hold their BENCH_*.json to
#                                   # tools/bench_gate.py: absolute
#                                   # floors on the executor's shallow
#                                   # and deep chains and on packed+SIMD
#                                   # conv per cell, the live
#                                   # SIMD-vs-scalar conv ratio, the
#                                   # mixed-pool serving ablation
#                                   # (deadline routing >= 1.3x naive
#                                   # on tight goodput), the
#                                   # autotuned-plan ablation (the tuned
#                                   # plan loses on no throughput metric;
#                                   # capacity held to the committed
#                                   # BENCH_autotune.json), and the
#                                   # link-fault serving ablation (a farm
#                                   # with a dead MaxRing link holds
#                                   # >= 0.70x healthy throughput with
#                                   # zero lost requests)
#   TUNE=1 tools/check.sh           # additionally run a bounded qnn_tune
#                                   # --check pass (fail if the tuned plan
#                                   # lost to the default on the deciding
#                                   # metric — a structural invariant)
#   MC=1 tools/check.sh             # additionally run the exhaustive
#                                   # scheduler-protocol model checker
#                                   # (ctest label `mc`: src/mc explores
#                                   # every interleaving of the ReadyHook
#                                   # publish/park protocol; < 60 s)
#
# The default run already includes the QNN-D6xx static gates — the
# compiled-plan consistency lint (PlanLint suite) and the exact token-flow
# deadlock proofs (TokenFlow suite) run inside test_verify/test_plan.
#
# The build directory is build-check[-$SANITIZE], separate from the
# default build/ so a strict -Werror configure never pollutes it.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${SANITIZE:-}"
CHAOS="${CHAOS:-}"
PERF="${PERF:-}"
TUNE="${TUNE:-}"
MC="${MC:-}"
BUILD_DIR="build-check${SANITIZE:+-$SANITIZE}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (${BUILD_DIR}, QNN_WERROR=ON${SANITIZE:+, QNN_SANITIZE=$SANITIZE}) =="
cmake -B "$BUILD_DIR" -S . -DQNN_WERROR=ON \
  ${SANITIZE:+-DQNN_SANITIZE="$SANITIZE"}

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
if [ -n "$SANITIZE" ]; then
  # Sanitized runs target the concurrency-sensitive suites; the full
  # matrix runs in the plain configuration below them.
  ctest --test-dir "$BUILD_DIR" -L sanitize --output-on-failure
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure
fi

if [ -n "$MC" ]; then
  echo "== mc (exhaustive scheduler-protocol model checking) =="
  # Explores every interleaving of the ReadyHook publish/park protocol on
  # virtual threads (src/mc) — clean protocol proved, mutated variants
  # (dropped fence / skipped re-step / lost notify) caught as deadlocks.
  # Self-skips under sanitizers (fiber stacks are invisible to their
  # shadow state); the whole label stays under a 60 s budget.
  ctest --test-dir "$BUILD_DIR" -L mc --output-on-failure
fi

if [ -n "$CHAOS" ]; then
  echo "== chaos (seeded fault-injection soak) =="
  ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure
  echo "== chaos (partitioned link soak: MaxRing faults + failover) =="
  ctest --test-dir "$BUILD_DIR" -L linkchaos --output-on-failure
fi

if [ -n "$PERF" ]; then
  # Each bench writes its fresh BENCH_*.json into the build directory;
  # tools/bench_gate.py holds it (and the committed one in the repository
  # root) to the recorded floors and bars.
  echo "== perf (executor: absolute floors on the ready-queue chains) =="
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_micro_kernels" --benchmark_filter=__none__
  python3 tools/bench_gate.py executor \
    "$BUILD_DIR/BENCH_executor.json" BENCH_executor.json

  echo "== perf (conv datapath: per-cell floors, SIMD-vs-scalar bar) =="
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_micro_kernels" --conv-datapath-only
  python3 tools/bench_gate.py kernels \
    "$BUILD_DIR/BENCH_kernels.json" BENCH_kernels.json

  echo "== perf (mixed-pool serving ablation: routing >= 1.3x naive) =="
  # Exit code enforces the bar; the json lands next to the others.
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_serving" --backends-only

  echo "== perf (autotuned-plan ablation vs recorded baseline) =="
  # The ablation's exit code enforces the noise-robust bar (the tuned plan
  # loses on NO throughput metric: raw >= 0.90x, capacity >= 0.90x — both
  # arms are compiled live and every repeat interleaves them).
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_serving" --autotune-only
  python3 tools/bench_gate.py autotune \
    "$BUILD_DIR/BENCH_autotune.json" BENCH_autotune.json

  echo "== perf (link-fault serving ablation vs recorded baseline) =="
  # The ablation's exit code enforces the robustness bar live (both farms
  # run interleaved windows, so the ratio is immune to machine mood).
  QNN_CSV_DIR="$BUILD_DIR" \
    "$BUILD_DIR/bench/bench_serving" --link-fault-only
  python3 tools/bench_gate.py linkfault \
    "$BUILD_DIR/BENCH_linkfault.json" BENCH_linkfault.json
fi

if [ -n "$TUNE" ]; then
  echo "== tune (bounded autotune run; tuned must not lose) =="
  # --check exits 1 if the tuned plan lost to the default on the deciding
  # metric. Structurally impossible (the default is candidate 0 and only a
  # strict improvement replaces it), so this is a tripwire for the
  # autotuner's core invariant. The budget keeps the whole pass < 60 s.
  "$BUILD_DIR/examples/qnn_tune" --budget 45 --check
fi

echo "== lint =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "$BUILD_DIR" --target lint
else
  echo "lint: clang-tidy not found on PATH; skipped (policy in .clang-tidy)"
fi

echo "== check.sh: all gates passed =="
