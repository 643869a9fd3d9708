#!/usr/bin/env bash
# One-command CI for the HALO reproduction: the tier-1 verify (Release
# build + full ctest, including the golden_run_json and golden_matrix_json
# byte checks) followed by the ASan+UBSan build (-DHALO_SANITIZE=ON, with
# libstdc++'s container assertions and the asserts compiled in: it undoes
# the build type's NDEBUG) running the same suite. Both builds compile
# every target with -Wall -Wextra as errors
# (-DCMAKE_COMPILE_WARNING_AS_ERROR=ON). Each build also smoke-tests the artifact store
# end to end through halo_cli against a per-run temp --store-dir: a cold
# health matrix of the halo and hds kinds populates it with a HALO and an
# HDS bundle and no trace entry, the warm run must load both, emit
# byte-identical JSON and leave every entry's inode, size and mtime
# unchanged, verify and gc must pass. The sanitized build then soaks
# the codec properties (tests/codec_test.cpp: every payload and bundle
# layout, the HALO envelope, frames and the store entry header) at
# HALO_CODEC_ITERATIONS=$CODEC_SOAK, eight times the default instances.
# And each build smoke-tests the serve daemon: two concurrent
# clients against one daemon on a temp socket, each byte-identical to a
# local run, a third client naming its machine with --machine, also
# byte-identical to a local run, a warm resubmission that must match too
# and leave the store's files untouched, then a clean client-initiated
# shutdown (exit 0, socket file gone). And --out aimed at a FIFO must
# write through it and leave it a FIFO.
#
# Two source checks run first: no file under src/ other than runPlan's
# (eval/Experiment.cpp) and the serve daemon's (serve/Server.cpp) may
# construct an Executor, and none outside the Executor itself and the
# daemon's scheduler and session readers (serve/Server.*, serve/Session.h)
# may start a std::thread or std::async -- the one-scheduler rule -- and
# the repository benchmark (benchmark/, its own CMake project in
# build-bench/) must build against the current library, pass its
# self-test, run all four workloads at smoke size with every correctness
# check on (byte-equal repeats, the direct-measurement oracle, no store
# rewrite when warm), and run its traced per-layer benchmark on
# matrix_cold_test (its step-by-step pipeline byte-equal to
# optimizeBinary, replay equal to direct execution, spans covering the
# wall time), so an API or behaviour change that breaks it fails here
# rather than in a benchmark run.
#
# Last, a third build compiles the suite with ThreadSanitizer (plain
# CMAKE_CXX_FLAGS and CMAKE_EXE_LINKER_FLAGS, no benches or examples,
# warnings as errors) and runs the concurrency suites -- the Executor,
# plan building and running, the store's plans and racing writers, and
# the serve daemon's sessions and lock order -- stopping at the first
# TSan report.
#
# Usage: scripts/ci.sh [build-dir [sanitize-build-dir [tsan-build-dir]]]
#   build dirs default to build/, build-asan/ and build-tsan/ at the repo
#   root; CTEST_PARALLEL overrides the ctest -j level.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
SAN_BUILD="${2:-$ROOT/build-asan}"
TSAN_BUILD="${3:-$ROOT/build-tsan}"
JOBS="${CTEST_PARALLEL:-$(nproc)}"
CODEC_SOAK=256

# Cold run, bundles-only listing, warm run, byte-compare, untouched
# entries, verify, gc -- with a store directory that lives only for this
# invocation, so runs never poison each other.
store_smoke() {
  local build="$1"
  local store out_cold out_warm listing
  store="$(mktemp -d)"
  out_cold="$(mktemp)"
  out_warm="$(mktemp)"
  listing="$(mktemp)"
  trap 'rm -rf "$store" "$out_cold" "$out_warm" "$listing"' RETURN
  local run=("$build/examples/halo_cli" experiments health --kinds halo,hds
             --scale test --trials 2 --store-dir "$store")
  "${run[@]}" --out "$out_cold"
  # Plans publish HALO/HDS bundles only: both kinds, no trace entry.
  "$build/examples/halo_cli" store ls --store-dir "$store" --out "$listing"
  if grep -q '"type": "trace"' "$listing" ||
     ! grep -q '"type": "halo"' "$listing" ||
     ! grep -q '"type": "hds"' "$listing"; then
    echo "store_smoke: the cold run did not publish HALO and HDS bundles only:" >&2
    cat "$listing" >&2
    return 1
  fi
  # The warm run must load both bundles, not republish: a rewritten entry
  # would show a new inode and mtime.
  local store_before store_after
  store_before="$(stat -c '%n %i %s %y' "$store"/*)"
  "${run[@]}" --out "$out_warm"
  cmp "$out_cold" "$out_warm"
  store_after="$(stat -c '%n %i %s %y' "$store"/*)"
  if [[ "$store_before" != "$store_after" ]]; then
    echo "store_smoke: the warm run rewrote the store:" >&2
    diff <(echo "$store_before") <(echo "$store_after") >&2 || true
    return 1
  fi
  "$build/examples/halo_cli" store verify --store-dir "$store"
  "$build/examples/halo_cli" store gc --store-dir "$store"
}

# --out aimed at an existing non-regular file: halo_cli must write the
# FIFO in place (no temp file renamed over it), so afterwards it is still a
# FIFO, and a reader sees exactly the bytes a regular-file --out gets.
out_fifo_smoke() {
  local build="$1"
  local dir reader_pid
  dir="$(mktemp -d)"
  reader_pid=""
  # shellcheck disable=SC2064
  trap "if [[ -n \"\${reader_pid:-}\" ]]; then kill \"\$reader_pid\" 2>/dev/null || true; fi; rm -rf \"$dir\"" RETURN
  mkfifo "$dir/out.fifo"
  # The reader times out rather than hang CI if halo_cli never opens it.
  timeout 120 cat "$dir/out.fifo" > "$dir/from_fifo.json" &
  reader_pid=$!
  "$build/examples/halo_cli" run health --trials 1 --out "$dir/out.fifo"
  if [[ ! -p "$dir/out.fifo" ]]; then
    echo "out_fifo_smoke: --out replaced the FIFO with a regular file" >&2
    return 1
  fi
  wait "$reader_pid"
  reader_pid=""
  "$build/examples/halo_cli" run health --trials 1 --out "$dir/regular.json"
  cmp "$dir/regular.json" "$dir/from_fifo.json"
}

# The serve daemon end to end through halo_cli: a daemon on a per-run
# temp socket serves two clients concurrently, each client's streamed
# JSON must be byte-identical to a local `experiments` run of the same
# spec ("served = local"), as must a third client naming its machine
# with --machine, a warm resubmission of the first spec must
# match as well without rewriting any store entry (the daemon already
# holds every artifact bundle it needs), and a client-initiated
# shutdown must leave exit 0 and no socket file behind.
serve_smoke() {
  local build="$1"
  local dir daemon_pid sock
  dir="$(mktemp -d)"
  daemon_pid=""
  # shellcheck disable=SC2064
  trap "if [[ -n \"\${daemon_pid:-}\" ]]; then kill \"\$daemon_pid\" 2>/dev/null || true; fi; rm -rf \"$dir\"" RETURN
  sock="$dir/halo.sock"

  "$build/examples/halo_cli" serve --socket "$sock" --jobs 2 \
      --store-dir "$dir/store" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sock" ]]

  # Local oracles for both client specs.
  "$build/examples/halo_cli" experiments health --kinds jemalloc,halo \
      --scale test --trials 2 --out "$dir/local_a.json"
  "$build/examples/halo_cli" experiments ft --kinds jemalloc,hds \
      --scale test --trials 2 --out "$dir/local_b.json"

  # Two clients racing on the one daemon.
  "$build/examples/halo_cli" client run health --socket "$sock" \
      --kinds jemalloc,halo --scale test --trials 2 \
      --out "$dir/served_a.json" &
  local client_a=$!
  "$build/examples/halo_cli" client run ft --socket "$sock" \
      --kinds jemalloc,hds --scale test --trials 2 \
      --out "$dir/served_b.json" &
  local client_b=$!
  wait "$client_a"
  wait "$client_b"
  cmp "$dir/local_a.json" "$dir/served_a.json"
  cmp "$dir/local_b.json" "$dir/served_b.json"

  # --machine names client run's one measured machine, as it does for a
  # local experiments run.
  "$build/examples/halo_cli" experiments health --machine mobile \
      --kinds jemalloc,halo --scale test --trials 2 --out "$dir/local_m.json"
  "$build/examples/halo_cli" client run health --socket "$sock" \
      --machine mobile --kinds jemalloc,halo --scale test --trials 2 \
      --out "$dir/served_m.json"
  cmp "$dir/local_m.json" "$dir/served_m.json"

  # Warm resubmission: measurements only, byte-identical, store untouched
  # (a republished entry would show a new inode and mtime).
  local store_before store_after
  store_before="$(stat -c '%n %i %s %y' "$dir/store"/*)"
  "$build/examples/halo_cli" client run health --socket "$sock" \
      --kinds jemalloc,halo --scale test --trials 2 \
      --out "$dir/served_a_warm.json"
  cmp "$dir/local_a.json" "$dir/served_a_warm.json"
  store_after="$(stat -c '%n %i %s %y' "$dir/store"/*)"
  if [[ "$store_before" != "$store_after" ]]; then
    echo "serve_smoke: a warm resubmission rewrote the store:" >&2
    diff <(echo "$store_before") <(echo "$store_after") >&2 || true
    return 1
  fi

  "$build/examples/halo_cli" client shutdown --socket "$sock"
  wait "$daemon_pid"
  daemon_pid=""
  [[ ! -e "$sock" ]]
}

# The one-scheduler rule, mechanically: a declaration that constructs an
# Executor (a named variable, a temporary, make_unique/make_shared, new)
# anywhere under src/ outside the allow-list fails CI, and so does a raw
# std::thread or std::async outside the Executor and the daemon's own
# scheduler and session threads. Comment lines are skipped.
executor_rule() {
  local hits threads
  hits="$(cd "$ROOT" &&
    grep -rnE '\bExecutor([[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({;]|[[:space:]]*[({])|(make_unique|make_shared)<Executor>|new[[:space:]]+Executor\b' \
      src --include='*.h' --include='*.cpp' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' |
    grep -vE '^src/(eval/Experiment\.cpp|serve/Server\.cpp|support/Executor\.(h|cpp)):' ||
    true)"
  if [[ -n "$hits" ]]; then
    echo "executor_rule: only eval/Experiment.cpp (runPlan) and" \
         "serve/Server.cpp (the daemon) may construct an Executor:" >&2
    echo "$hits" >&2
    return 1
  fi
  threads="$(cd "$ROOT" &&
    grep -rnE '\bstd::(thread|async)\b' src --include='*.h' --include='*.cpp' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' |
    grep -vE '^src/(support/Executor\.(h|cpp)|serve/Server\.(h|cpp)|serve/Session\.h):' ||
    true)"
  if [[ -n "$threads" ]]; then
    echo "executor_rule: parallel work goes through the Executor; only" \
         "support/Executor.*, serve/Server.* and serve/Session.h may" \
         "start a std::thread or std::async:" >&2
    echo "$threads" >&2
    return 1
  fi
}

# The repository benchmark builds from these sources with its own CMake
# project; build both of its drivers, run its self-test, then its four
# workloads at a tenth of the time, then the traced per-layer benchmark
# on the cold matrix (any failed check exits non-zero).
benchmark_build() {
  cmake -S "$ROOT/benchmark" -B "$ROOT/build-bench" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-bench" -j "$(nproc)" \
      --target halo_bench halo_bench_layers
  bash "$ROOT/benchmark/run.sh" --self-test
  bash "$ROOT/benchmark/run.sh" --smoke
  bash "$ROOT/benchmark/run.sh" --trace 1 --smoke --workload matrix_cold_test
}

echo "== source: one-scheduler rule =="
executor_rule

echo "== source: benchmark/ builds and self-tests =="
benchmark_build

echo "== tier-1: Release build + ctest ($BUILD) =="
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== tier-1: store warm/cold smoke =="
store_smoke "$BUILD"

echo "== tier-1: --out FIFO smoke =="
out_fifo_smoke "$BUILD"

echo "== tier-1: serve daemon smoke =="
serve_smoke "$BUILD"

echo "== sanitized: ASan+UBSan build + ctest ($SAN_BUILD) =="
cmake -B "$SAN_BUILD" -S "$ROOT" -DHALO_SANITIZE=ON \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$SAN_BUILD" -j "$(nproc)"
ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS"

echo "== sanitized: codec property soak (HALO_CODEC_ITERATIONS=$CODEC_SOAK) =="
HALO_CODEC_ITERATIONS="$CODEC_SOAK" "$SAN_BUILD/halo_tests" \
    --gtest_filter='Layouts/CodecProperties.*:FrameProperties.*:StoreEntryProperties.*'

echo "== sanitized: store warm/cold smoke =="
store_smoke "$SAN_BUILD"

echo "== sanitized: --out FIFO smoke =="
out_fifo_smoke "$SAN_BUILD"

echo "== sanitized: serve daemon smoke =="
serve_smoke "$SAN_BUILD"

echo "== thread-sanitized: concurrency suites ($TSAN_BUILD) =="
cmake -B "$TSAN_BUILD" -S "$ROOT" -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread -DHALO_BUILD_BENCHES=OFF \
    -DHALO_BUILD_EXAMPLES=OFF -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$TSAN_BUILD" -j "$(nproc)" --target halo_tests
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" "$TSAN_BUILD/halo_tests" \
    --gtest_filter='Executor*:BuildPlan*:RunPlan*:Wrappers*:StorePlans*:StoreConcurrency*:Serve*'

echo "== ci: all suites passed =="
