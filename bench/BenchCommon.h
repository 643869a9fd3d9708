//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure/table bench binaries: trial counts, the
/// one plan-backed measurement call the figure drivers share, the paper's
/// approximate reference values (read off its figures) for side-by-side
/// printing, and small formatting utilities.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCH_BENCHCOMMON_H
#define HALO_BENCH_BENCHCOMMON_H

#include "eval/Experiment.h"
#include "eval/Report.h"
#include "support/Format.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace halo {
namespace bench {

/// The provenance fields of every BENCH_pipeline.json row, rendered to
/// close a row object: the host's core count and the build type this
/// bench was compiled as (HALO_BENCH_BUILD_TYPE, set by CMake).
inline std::string hostFields() {
  return ", \"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build\": \"" HALO_BENCH_BUILD_TYPE "\"";
}

/// Writes pre-rendered JSON object rows (each "  {...}", no trailing
/// comma or newline) as an array to \p Path; with \p Append, merges them
/// into the file's existing array instead (whichever bench owns the
/// file's fresh write runs first; appenders follow).
inline void writeJsonRows(const std::string &Path,
                          const std::vector<std::string> &Rows,
                          bool Append) {
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
  for (size_t I = 0; I < Rows.size(); ++I)
    std::fprintf(Out, "%s%s\n", Rows[I].c_str(),
                 I + 1 < Rows.size() ? "," : "");
  std::fputs("]\n", Out);
  std::fclose(Out);
}

/// Trials per configuration. The paper runs 11 and reports medians; the
/// simulator is deterministic per seed, so a handful of seeds suffices.
/// Override with HALO_BENCH_TRIALS.
inline int trials() {
  if (const char *Env = std::getenv("HALO_BENCH_TRIALS"))
    return std::max(1, std::atoi(Env));
  return 3;
}

/// The figure drivers' measurement path: \p Kinds on every benchmark in
/// \p Benchmarks at ref scale, trials() trials per cell, on the setup's
/// machine (the default preset), as one plan over every core.
/// \p MakeSetup replaces paperSetup() (see ExperimentSpec::MakeSetup).
inline ResultSet
measure(std::vector<std::string> Benchmarks, std::vector<AllocatorKind> Kinds,
        std::function<BenchmarkSetup(const std::string &)> MakeSetup =
            nullptr) {
  ExperimentSpec Spec;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Kinds = std::move(Kinds);
  Spec.S = Scale::Ref;
  Spec.Trials = trials();
  Spec.MakeSetup = std::move(MakeSetup);
  ExperimentPlan Plan = buildPlan({Spec});
  return runPlan(Plan);
}

/// The per-trial runs of \p Benchmark under \p Kind in a measure() result;
/// exits if the plan never measured that cell.
inline const std::vector<RunMetrics> &runs(const ResultSet &Results,
                                           const std::string &Benchmark,
                                           AllocatorKind Kind) {
  const ResultSet::Cell *Cell =
      Results.find(Benchmark, defaultMachine().Name, Kind, Scale::Ref);
  if (!Cell) {
    std::fprintf(stderr, "no %s cell for %s\n", allocatorKindName(Kind),
                 Benchmark.c_str());
    std::exit(1);
  }
  return Cell->Runs;
}

/// Paper reference values, read off Figures 13/14 (approximate, in
/// percent). Order matches workloadNames().
struct PaperRow {
  double HdsMiss, HaloMiss, HdsSpeed, HaloSpeed;
};

inline PaperRow paperFigures(const std::string &Benchmark) {
  if (Benchmark == "health")
    return {17, 20, 21, 28};
  if (Benchmark == "ft")
    return {12, 14, 8, 10};
  if (Benchmark == "analyzer")
    return {9, 10, 6, 7};
  if (Benchmark == "ammp")
    return {10, 12, 8, 10};
  if (Benchmark == "art")
    return {15, 18, 10, 13};
  if (Benchmark == "equake")
    return {8, 10, 6, 8};
  if (Benchmark == "povray")
    return {2, 10, 0, 1};
  if (Benchmark == "omnetpp")
    return {0, 8, 0, 4};
  if (Benchmark == "xalanc")
    return {1, 18, 0, 16};
  if (Benchmark == "leela")
    return {2, 10, 0, 1};
  if (Benchmark == "roms")
    return {-3, 0, -1, 0};
  return {0, 0, 0, 0};
}

/// Table 1 of the paper (exact values).
struct PaperFragRow {
  const char *Benchmark;
  double Percent;
  const char *Bytes;
};

inline const std::vector<PaperFragRow> &paperTable1() {
  static const std::vector<PaperFragRow> Rows = {
      {"health", 0.01, "31.98KiB"}, {"equake", 0.05, "12.08KiB"},
      {"analyzer", 0.13, "4.31KiB"}, {"ammp", 0.20, "40.97KiB"},
      {"art", 0.62, "11.70KiB"},     {"ft", 2.06, "4.05KiB"},
      {"povray", 26.47, "37.06KiB"}, {"roms", 93.60, "29.95KiB"},
      {"leela", 99.99, "2.05MiB"}};
  return Rows;
}

} // namespace bench
} // namespace halo

#endif // HALO_BENCH_BENCHCOMMON_H
