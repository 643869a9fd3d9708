#!/usr/bin/env bash
# Runs the machine-readable benches and rewrites the perf trajectory files
# at the repo root, one clock per file:
#   BENCH_pipeline.json  harness wall-clock. Rows {"bench", "nodes",
#     "edges", "wall_ms", "trials", "host_cores", "build"}:
#     bench_grouping_scale writes it fresh; bench_replay appends its
#     record/replay rows: replay_record_* / replay_direct_* /
#     replay_replay_* (a per-event replay loop kept in the bench as the
#     baseline) / replay_batched_* (the in-tree batched Runtime::replay --
#     the row set that tracks the batching win per PR) and the sweep_*
#     pair: sweep_direct_serial (a serial loop of direct measurements)
#     and sweep_plan_parallel (the same measurements as one plan, trials
#     fanned out by runPlan).
#   BENCH_machines.json  simulated time. Rows {"bench", "machine", "kind",
#     "wall_ms", "trials"} (+ l1d_misses / tlb_misses / speedup_percent
#     detail fields), the halo_cli cross-machine sweep: jemalloc/hds/halo
#     medians for every benchmark on every machine preset at ref scale.
# so successive PRs can track the perf trajectory. The harness-clock
# end-to-end numbers (halo_cli run, experiment matrices, the serve
# daemon) belong to the repository benchmark in benchmark/. Section 5's
# figures and tables are build/bench/figures, pinned by the
# golden_figures_* ctests rather than written here.
#
# Usage: bench/run_benches.sh [build-dir]   (default: build)
# `cmake --build build --target bench` runs this script on its build dir.
# HALO_BENCH_TRIALS overrides the per-config trial count.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${BUILD_DIR:-build}}"
case "$BUILD" in
  /*) ;;                 # Absolute build dir: use as-is.
  *) BUILD="$ROOT/$BUILD" ;;
esac

for Bench in bench/bench_grouping_scale bench/bench_replay examples/halo_cli; do
  if [[ ! -x "$BUILD/$Bench" ]]; then
    echo "error: $BUILD/$Bench not built; run: cmake -B $BUILD -S $ROOT && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

TRIALS="${HALO_BENCH_TRIALS:-3}"

"$BUILD/bench/bench_grouping_scale" "$ROOT/BENCH_pipeline.json"
"$BUILD/bench/bench_replay" --append "$ROOT/BENCH_pipeline.json"
echo "BENCH_pipeline.json updated:"
cat "$ROOT/BENCH_pipeline.json"

# Cross-machine sweep over every benchmark: one experiment plan, so each
# benchmark's pipelines run once and every machine preset measures
# against the same artifacts.
"$BUILD/examples/halo_cli" sweep --trials "$TRIALS" \
    --out "$ROOT/BENCH_machines.json"
echo "BENCH_machines.json updated:"
cat "$ROOT/BENCH_machines.json"
