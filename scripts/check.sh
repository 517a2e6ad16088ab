#!/usr/bin/env bash
# CI entry point: build the plain and sanitized (ASan+UBSan) configurations
# and run the full test suite under each. The plain build must print no
# compiler warning: the script fails on any `warning:` line it emits (on a
# fresh tree, as in CI, that covers every translation unit; an incremental
# local build only shows the files it recompiles).
#
# Usage: scripts/check.sh [jobs]
#
# Set PEEL_CHECK_TSAN=1 to additionally build a ThreadSanitizer
# configuration and run the concurrency-sensitive tests under it
# (the parallel sweep engine, the Samples::quantile lazy-sort guard, the
# fault-injection sweep determinism tests, which exercise concurrent cells
# mutating private topology copies, and the pod-sharded engine's
# shard-invariance suite, which drives the worker pool + mailbox barriers).
#
# Set PEEL_CHECK_PERF=1 to additionally run the perf smoke leg: a Release
# build of the simulator performance suite (scripts/perf.sh) in quick mode,
# the standalone scheduler/control-plane microbench, a report-only diff
# of the fresh BENCH_sim.json columns against the committed copy
# (scripts/perf_diff.sh), an audited flow-fidelity smoke (scenario_cli
# --fidelity=flow, with a packet-vs-flow byte-totals cross-check), an
# audited flow-fidelity PEEL workload with churn, an audited in-network
# AllReduce smoke through scenario_cli, shard-invariance smokes (PEEL,
# Ring and in-network AllReduce at 1 vs 4 sharded workers, diffed), a
# multi-tenant workload smoke, and the traced peelbench run of every
# benchmark workload (each must report "correct": true; peelbench builds
# under $CARGO_TARGET_DIR/peelbench, default .bench_build/). It gates on
# determinism (perf_suite --check, the diffs and the traced runs), not on
# speed.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

run_config() {
  local dir="$1"
  shift
  echo "== configure ${dir} ($*) =="
  cmake -B "${dir}" -S . "$@"
  echo "== build ${dir} =="
  cmake --build "${dir}" -j "${JOBS}" 2>&1 | tee "${dir}/build.log"
  if [[ "${dir}" == build ]] && grep -q 'warning:' "${dir}/build.log"; then
    echo "== ${dir} printed compiler warnings =="
    grep 'warning:' "${dir}/build.log"
    exit 1
  fi
  echo "== ctest ${dir} =="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_config build
run_config build-asan -DPEEL_SANITIZE=ON

if [[ "${PEEL_CHECK_TSAN:-0}" != "0" ]]; then
  echo "== configure build-tsan (-DPEEL_TSAN=ON) =="
  cmake -B build-tsan -S . -DPEEL_TSAN=ON
  echo "== build build-tsan =="
  cmake --build build-tsan -j "${JOBS}" --target sweep_test stats_race_test fault_schedule_test shard_invariance_test
  echo "== ctest build-tsan (concurrency tests) =="
  (cd build-tsan && ctest --output-on-failure -R '^(sweep_test|stats_race_test|fault_schedule_test|shard_invariance_test)$')
fi

if [[ "${PEEL_CHECK_PERF:-0}" != "0" ]]; then
  echo "== perf smoke (Release perf_suite, quick mode) =="
  PEEL_BENCH_QUICK=1 scripts/perf.sh "${JOBS}"
  echo "== scheduler + control-plane microbench (quick) =="
  PEEL_BENCH_QUICK=1 ./build-perf/bench/perf_suite --microbench
  echo "== perf diff vs committed BENCH_sim.json (report-only) =="
  scripts/perf_diff.sh
  echo "== flow-fidelity smoke (scenario_cli --fidelity=flow, audited) =="
  ./build-perf/examples/scenario_cli peel broadcast 64 8 30 10 \
      --audit --watchdog --fidelity=flow | tee /tmp/peel_flow_smoke.txt
  ./build-perf/examples/scenario_cli peel broadcast 64 8 30 10 \
      --audit --watchdog --fidelity=packet | tee /tmp/peel_packet_smoke.txt
  # Byte accounting is fidelity-independent (same trees, same chunks);
  # CCT differs within documented tolerances, so only byte lines are diffed.
  diff <(grep -E 'fabric|core links' /tmp/peel_flow_smoke.txt) \
       <(grep -E 'fabric|core links' /tmp/peel_packet_smoke.txt)
  echo "== flow-fidelity workload smoke (PEEL jobs with churn, audited) =="
  ./build-perf/examples/scenario_cli --workload peel broadcast 16 1 30 40 \
      --churn=1 --audit --watchdog --fidelity=flow
  echo "== in-network AllReduce smoke (scenario_cli innet, audited) =="
  ./build-perf/examples/scenario_cli innet allreduce 16 8 30 5 --audit --watchdog
  echo "== shard-invariance smokes (scenario_cli --shards=1 vs 4, audited) =="
  for cell in "peel broadcast" "ring broadcast" "innet allreduce"; do
    read -r scheme collective <<< "${cell}"
    for workers in 1 4; do
      ./build-perf/examples/scenario_cli "${scheme}" "${collective}" 64 8 30 10 \
          --audit --watchdog --shards="${workers}" > "/tmp/peel_shards${workers}.txt"
    done
    diff /tmp/peel_shards1.txt /tmp/peel_shards4.txt
  done
  echo "== multi-tenant workload smoke (scenario_cli --workload, audited) =="
  ./build-perf/examples/scenario_cli --workload optimal broadcast 16 1 30 40 \
      --churn=1 --capacity=8 --audit --watchdog
  echo "== traced benchmark smoke (peelbench, all workloads, --trace 1) =="
  for workload in fig5-packet flow-tenancy fig7-flap; do
    python3 peelbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
        --trace 1 | tee /tmp/peelbench.txt
    tail -n 1 /tmp/peelbench.txt | grep -q '"correct": true'
  done
fi

echo "== all checks passed =="
