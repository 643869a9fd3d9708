#!/usr/bin/env bash
# The repository benchmark's one command. Builds the repository as it
# stands into build-bench/ (benchmark/CMakeLists.txt, Release), then runs
# the end-to-end driver, or with --trace 1 the traced per-layer driver.
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                         [--trace 0|1] [--smoke] [--out FILE]
#   bash benchmark/run.sh --self-test
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail

Root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$Root"

Trace=0
SelfTest=0
Args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then Trace=$2; shift; else Trace=1; fi ;;
    --self-test) SelfTest=1; Args+=("$1") ;;
    *) Args+=("$1") ;;
  esac
  shift
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: the HALO sources are not next to benchmark/; nothing to build" >&2
  exit 2
fi

if [ "$SelfTest" = 1 ]; then
  python3 benchmark/compare.py --self-test
fi

Build=build-bench
Bin=halo_bench
Targets=(halo_cli halo_bench)
if [ "$Trace" = 1 ]; then
  Bin=halo_bench_layers
  Targets=(halo_bench_layers)
fi
{
  if [ ! -f "$Build/CMakeCache.txt" ]; then
    cmake -S benchmark -B "$Build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$Build" -j "$(nproc)" --target "${Targets[@]}"
} 1>&2

Rev=unknown
if [ -d .git ]; then
  Rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$Build/$Bin" --cli "$Build/examples/halo_cli" --work "$Build/work" \
  --rev "$Rev" ${Args[@]+"${Args[@]}"}
