//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: the trial count (figures and
/// bench_grouping_scale), wall-clock and thread-CPU medians and minima, and
/// the BENCH_pipeline.json row and its writer (bench_grouping_scale writes
/// the whole file).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCH_BENCHCOMMON_H
#define HALO_BENCH_BENCHCOMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
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

/// CPU time the calling thread has used, in ms.
inline double threadCpuMs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
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

/// Runs \p Run \p Trials times on the calling thread and returns the
/// median wall-clock ms and the median CPU ms of the calling thread.
template <typename Fn>
std::pair<double, double> medianWallCpuMs(int Trials, Fn &&Run) {
  std::vector<double> Wall, Cpu;
  for (int T = 0; T < Trials; ++T) {
    double Start = nowMs(), CpuStart = threadCpuMs();
    Run();
    Cpu.push_back(threadCpuMs() - CpuStart);
    Wall.push_back(nowMs() - Start);
  }
  std::sort(Wall.begin(), Wall.end());
  std::sort(Cpu.begin(), Cpu.end());
  return {Wall[Wall.size() / 2], Cpu[Cpu.size() / 2]};
}

/// Runs \p Run \p Reps times on the calling thread and returns the least
/// wall-clock ms and the least CPU ms of the calling thread: the cost with
/// the least interference, for a row whose runs land in separate modes.
template <typename Fn>
std::pair<double, double> minWallCpuMs(int Reps, Fn &&Run) {
  double Wall = 1e300, Cpu = 1e300;
  for (int T = 0; T < Reps; ++T) {
    double Start = nowMs(), CpuStart = threadCpuMs();
    Run();
    Cpu = std::min(Cpu, threadCpuMs() - CpuStart);
    Wall = std::min(Wall, nowMs() - Start);
  }
  return {Wall, Cpu};
}

/// One BENCH_pipeline.json row (harness clock).
struct BenchRow {
  std::string Bench;
  uint64_t Nodes;
  uint64_t Edges;
  double WallMs;
  int Trials;
  double CpuMs = -1; ///< Thread CPU ms; negative when not taken.
  /// Peak resident growth in MB; negative when not taken.
  double RssGrowthMb = -1;
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
    char Cpu[64] = "", Rss[64] = "";
    if (R.CpuMs >= 0)
      std::snprintf(Cpu, sizeof(Cpu), ", \"cpu_ms\": %.3f", R.CpuMs);
    if (R.RssGrowthMb >= 0)
      std::snprintf(Rss, sizeof(Rss), ", \"peak_rss_growth_mb\": %.2f",
                    R.RssGrowthMb);
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"wall_ms\": %.3f%s%s, \"trials\": %d, \"host_cores\": %u, "
                 "\"build\": \"" HALO_BENCH_BUILD_TYPE "\"}%s\n",
                 R.Bench.c_str(), static_cast<unsigned long long>(R.Nodes),
                 static_cast<unsigned long long>(R.Edges), R.WallMs, Cpu, Rss,
                 R.Trials, Cores, I + 1 < Rows.size() ? "," : "");
  }
  std::fputs("]\n", Out);
  std::fclose(Out);
}

} // namespace bench
} // namespace halo

#endif // HALO_BENCH_BENCHCOMMON_H
