#!/usr/bin/env bash
# Runs the machine-readable benches and rewrites the perf trajectory files
# at the repo root:
#   BENCH_pipeline.json  {"bench", "nodes", "edges", "wall_ms", "trials"}
#     bench_grouping_scale writes it fresh; bench_replay appends its
#     record/replay rows: replay_record_* / replay_direct_* /
#     replay_replay_* (a per-event replay loop kept in the bench as the
#     baseline) / replay_batched_* (the in-tree batched Runtime::replay --
#     the row set that tracks the batching win per PR) plus the
#     out-of-core trace_stream_* rows (record-to-disk, mapped vs in-RAM
#     replay; each carries an "rss_kb" peak-RSS
#     column, and HALO_BENCH_TRACE_EVENTS sizes the synthetic trace).
#   BENCH_machines.json  {"bench", "machine", "kind", "wall_ms", "trials"}
#     (+ l1d_misses / tlb_misses / speedup_percent detail fields), the
#     halo_cli cross-machine sweep: jemalloc/hds/halo medians on every
#     machine preset. bench_experiments appends its experiments_mixed
#     rows: the same mixed matrix scheduled as one experiment plan vs
#     back-to-back per-benchmark plans (plan / sequential kinds).
#     bench_serve appends its serve rows: the matrix run locally vs
#     streamed through an in-process halo serve daemon, cold and warm
#     (serve_local / serve_daemon / serve_daemon_warm kinds), all three
#     bit-identical by assertion.
# so successive PRs can track the perf trajectory.
#
# Usage: bench/run_benches.sh [build-dir]   (default: build)
# HALO_BENCH_TRIALS overrides the per-config trial count.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${BUILD_DIR:-build}}"
case "$BUILD" in
  /*) ;;                 # Absolute build dir: use as-is.
  *) BUILD="$ROOT/$BUILD" ;;
esac

for Bench in bench/bench_grouping_scale bench/bench_replay \
             bench/bench_experiments bench/bench_serve examples/halo_cli; do
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

# Cross-machine sweep on two contrasting benchmarks (health: TLB-bound
# pointer chasing; xalanc: deep call chains). One experiment plan:
# traces record once per benchmark and replay on every machine preset.
"$BUILD/examples/halo_cli" sweep health xalanc --trials "$TRIALS" \
    --out "$ROOT/BENCH_machines.json"

# Mixed-matrix scheduling row: the plan scheduler vs back-to-back
# per-benchmark sweeps (bit-identical cells; the win needs cores).
"$BUILD/bench/bench_experiments" --append "$ROOT/BENCH_machines.json"

# Daemon overhead rows: the same matrix served through halo serve, cold
# and warm, vs a local runPlan ("served = local" asserted bit-exact).
"$BUILD/bench/bench_serve" --append "$ROOT/BENCH_machines.json"
echo "BENCH_machines.json updated:"
cat "$ROOT/BENCH_machines.json"
