#!/usr/bin/env bash
# Release smoke test over one already-built Release tree:
#
#   scripts/release_smoke.sh <build-dir>
#
# 1. ctest once: the whole suite, every label (replay, shard, reopt, ...) included.
# 2. Every experiment binary with --smoke --json, twice, each run in its own directory. A
#    non-zero exit fails (bench_service and bench_scaling gate their own invariants). Every
#    simulated figure is a deterministic function of the source, so each BENCH_*.json pair
#    must be byte-identical: scheduler, tiering, record/replay, shard and reopt determinism.
# 3. The checked-in BENCH_service.json must match the fresh one byte for byte: a diff means a
#    change moved a simulated number (regenerate it with `bench_service --smoke --json` and
#    say why).
# 4. The named gates in the JSON: replay is zero-diff, slack-vs-FIFO keeps an equal-or-better
#    critical path, and the service's sched, shard and reopt loops pass.
# 5. Every example; service_demo and critpath_demo twice with their JSON exports diffed, and
#    sql_shell with one query on stdin.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT

step() { echo "=== $*"; }
gate() {
  grep -q "$1" "$2" || { echo "gate failed: $1 not in $2" >&2; exit 1; }
}

step "ctest"
ctest --test-dir "${build}" --output-on-failure -j"$(nproc)"

benches=(bench_operator_costs bench_activity bench_memory_profile bench_overhead
         bench_register_tagging bench_attribution bench_accuracy bench_storage
         bench_compilation_baseline bench_scaling bench_service)
for run in run1 run2; do
  mkdir -p "${work}/${run}"
  for bench in "${benches[@]}"; do
    step "${bench} --smoke --json (${run})"
    (cd "${work}/${run}" && "${build}/bench/${bench}" --smoke --json)
  done
done
step "bench_loc"
"${build}/bench/bench_loc"

step "double-run determinism of every BENCH_*.json"
for json in BENCH_scaling.json BENCH_service.json BENCH_replay1.json BENCH_replay2.json \
            BENCH_reopt.json BENCH_shard_fleet.json; do
  diff -u "${work}/run1/${json}" "${work}/run2/${json}"
done
# Replay is a pure function of (trace, build): both replays of one recording are identical.
diff -u "${work}/run1/BENCH_replay1.json" "${work}/run1/BENCH_replay2.json"

step "checked-in BENCH_service.json"
diff -u "${root}/BENCH_service.json" "${work}/run1/BENCH_service.json"

step "gates"
gate '"identical": true' "${work}/run1/BENCH_replay1.json"
gate '"critical_path_ok":true' "${work}/run1/BENCH_scaling.json"
gate '"sched_ok":true' "${work}/run1/BENCH_service.json"
gate '"sched_repartitions_applied":1' "${work}/run1/BENCH_service.json"
gate '"shard_ok":true' "${work}/run1/BENCH_service.json"
gate '"reopt_ok":true' "${work}/run1/BENCH_service.json"

for example in quickstart explain_profile plan_comparison memory_patterns parallel_profile \
               replay_demo; do
  step "${example}"
  (cd "${work}" && "${build}/examples/${example}")
done
for run in run1 run2; do
  step "service_demo and critpath_demo (${run})"
  (cd "${work}/${run}" && "${build}/examples/service_demo" && "${build}/examples/critpath_demo")
done
diff -u "${work}/run1/service_windows.json" "${work}/run2/service_windows.json"
diff -u "${work}/run1/critpath_analysis.json" "${work}/run2/critpath_analysis.json"
step "sql_shell"
echo "select count(*) from lineitem;" | "${build}/examples/sql_shell"

echo "RELEASE-SMOKE-OK"
