#!/usr/bin/env bash
# Runs the machine-readable benches and rewrites the perf trajectory files
# at the repo root, one clock per file:
#   BENCH_pipeline.json  harness wall-clock. Rows {"bench", "nodes",
#     "edges", "wall_ms", "trials", "host_cores", "build"}, all written by
#     bench_grouping_scale: grouping at scale against the Figure 6
#     reference, the CSR snapshot, affinity-queue and arena-lookup hot
#     paths, the cold-plan stages on the real workloads (profile_halo_test,
#     profile_hds_test, sequitur_hds_test, and hds_pipeline_rss_test, whose
#     "peak_rss_growth_mb" is the largest peak resident growth of one HDS
#     pipeline, each run in a forked child), hierarchy_setup_<preset>, and
#     the measured cells of a warm plan: measure_ref_<preset> (33 ref
#     cells per preset) and alloc_ref_jemalloc (the jemalloc ref runs with
#     no hierarchy); those rows also carry "cpu_ms". alloc_ref_jemalloc
#     reports the least wall and CPU over at least 15 repetitions, not a
#     median: its runs land in one of two modes (84-86 or 117-132 ms on a
#     4-core host), so a median of three cannot gate a cost.
#   BENCH_machines.json  simulated time. Rows {"bench", "machine", "kind",
#     "wall_ms", "trials"} (+ l1d_misses / tlb_misses / speedup_percent
#     detail fields), the halo_cli cross-machine sweep: jemalloc/hds/halo
#     medians for every benchmark on every machine preset at ref scale.
# so successive PRs can track the perf trajectory. The harness-clock
# end-to-end numbers (halo_cli run, experiment matrices, the serve
# daemon) and the per-layer record/replay timings belong to the
# repository benchmark in benchmark/. Section 5's figures and tables are
# build/bench/figures, pinned by the golden_figures_* ctests rather than
# written here.
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

for Bench in bench/bench_grouping_scale examples/halo_cli; do
  if [[ ! -x "$BUILD/$Bench" ]]; then
    echo "error: $BUILD/$Bench not built; run: cmake -B $BUILD -S $ROOT && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

TRIALS="${HALO_BENCH_TRIALS:-3}"

"$BUILD/bench/bench_grouping_scale" "$ROOT/BENCH_pipeline.json"
echo "BENCH_pipeline.json updated:"
cat "$ROOT/BENCH_pipeline.json"

# Cross-machine sweep over every benchmark: one experiment plan, so each
# benchmark's pipelines run once and every machine preset measures
# against the same artifacts.
"$BUILD/examples/halo_cli" sweep --trials "$TRIALS" \
    --out "$ROOT/BENCH_machines.json"
echo "BENCH_machines.json updated:"
cat "$ROOT/BENCH_machines.json"
