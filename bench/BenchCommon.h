//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: the trial count, wall-clock
/// medians, and the BENCH_pipeline.json row and its writer.
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
/// was compiled as (HALO_BENCH_BUILD_TYPE, set by CMake). With \p Append,
/// merges them into the file's existing array instead (whichever bench
/// owns the file's fresh write runs first; appenders follow).
inline void writeRows(const std::string &Path,
                      const std::vector<BenchRow> &Rows, bool Append) {
  std::string Prefix = "[\n";
  if (Append) {
    if (FILE *In = std::fopen(Path.c_str(), "r")) {
      std::string Existing;
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
        Existing.append(Buf, N);
      std::fclose(In);
      size_t Close = Existing.find_last_of(']');
      if (Close != std::string::npos) {
        Prefix = Existing.substr(0, Close);
        while (!Prefix.empty() &&
               (Prefix.back() == '\n' || Prefix.back() == ' '))
          Prefix.pop_back();
        // An empty existing array must not gain a leading comma (and a
        // degenerate file still needs its opening bracket).
        if (Prefix.empty())
          Prefix = "[\n";
        else
          Prefix += Prefix.back() == '[' ? "\n" : ",\n";
      }
    }
  }
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::fputs(Prefix.c_str(), Out);
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
