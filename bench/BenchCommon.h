//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: the trial count (figures and
/// bench_grouping_scale), wall-clock medians, and the BENCH_pipeline.json
/// row and its writer (bench_grouping_scale writes the whole file).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCH_BENCHCOMMON_H
#define HALO_BENCH_BENCHCOMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace halo {
namespace bench {

/// Trials per configuration. The paper runs 11 and reports medians; the
/// simulator is deterministic per seed, so a handful of seeds suffices.
/// Override with HALO_BENCH_TRIALS.
inline int trials() {
  if (const char *Env = std::getenv("HALO_BENCH_TRIALS"))
    return std::max(1, std::atoi(Env));
  return 3;
}

inline double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Runs \p Run \p Trials times and returns the median wall-clock ms.
template <typename Fn> double medianMs(int Trials, Fn &&Run) {
  std::vector<double> Times;
  Times.reserve(Trials);
  for (int T = 0; T < Trials; ++T) {
    double Start = nowMs();
    Run();
    Times.push_back(nowMs() - Start);
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// One BENCH_pipeline.json row (harness wall-clock).
struct BenchRow {
  std::string Bench;
  uint64_t Nodes;
  uint64_t Edges;
  double WallMs;
  int Trials;
};

/// Writes \p Rows as a JSON array to \p Path, each closed by the
/// provenance fields: the host's core count and the build type this bench
/// was compiled as (HALO_BENCH_BUILD_TYPE, set by CMake).
inline void writeRows(const std::string &Path,
                      const std::vector<BenchRow> &Rows) {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::fputs("[\n", Out);
  const unsigned Cores = std::thread::hardware_concurrency();
  for (size_t I = 0; I < Rows.size(); ++I) {
    const BenchRow &R = Rows[I];
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"wall_ms\": %.3f, \"trials\": %d, \"host_cores\": %u, "
                 "\"build\": \"" HALO_BENCH_BUILD_TYPE "\"}%s\n",
                 R.Bench.c_str(), static_cast<unsigned long long>(R.Nodes),
                 static_cast<unsigned long long>(R.Edges), R.WallMs, R.Trials,
                 Cores, I + 1 < Rows.size() ? "," : "");
  }
  std::fputs("]\n", Out);
  std::fclose(Out);
}

} // namespace bench
} // namespace halo

#endif // HALO_BENCH_BENCHCOMMON_H
