//===- benchmark/Common.h - Shared pieces of the benchmark drivers -*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What halo_bench (end-to-end) and halo_bench_layers (traced per-layer
/// run) share: the command line, the workload names, how the seed turns
/// into inputs, the percentile rule, and the one-line JSON result the
/// benchmark prints last. Everything here is header-only and depends on no
/// HALO library interface, so it cannot break when a layer changes.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCHMARK_COMMON_H
#define HALO_BENCHMARK_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline double msSince(Clock::time_point T0) {
  return msBetween(T0, Clock::now());
}

/// The four workloads, in the order a run without --workload executes them.
inline const std::vector<std::string> &workloads() {
  static const std::vector<std::string> Names = {
      "cli_run", "matrix_cold_test", "matrix_warm", "serve_mixed"};
  return Names;
}

/// The matrices' --seed-base for benchmark seed \p Seed: seed 1 gives the
/// paper default (100), every other seed a different set of inputs.
inline uint64_t seedBase(uint64_t Seed) { return 99 + Seed; }

/// splitmix64: the benchmark's own generator, so a seed produces the same
/// orders on every standard library (std::shuffle's output is not
/// specified).
class Shuffler {
public:
  explicit Shuffler(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  /// Fisher-Yates shuffle of \p Items.
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[next() % I]);
  }

private:
  uint64_t State;
};

/// Nearest-rank percentile: the smallest sample with at least \p P percent
/// of all samples at or below it (rank ceil(P/100 * N), 1-based). No
/// interpolation, so a percentile is always a latency some request really
/// had; a run is made of whole rounds over the same request mix, so the
/// rank lands in the same part of the mix however many rounds ran.
inline double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Values.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

/// How many samples lie strictly above \p Value (the choosing-metrics
/// rule: report the highest percentile with at least ten samples beyond).
inline size_t samplesAbove(const std::vector<double> &Values, double Value) {
  return static_cast<size_t>(
      std::count_if(Values.begin(), Values.end(),
                    [Value](double V) { return V > Value; }));
}

inline double median(const std::vector<double> &Values) {
  return percentile(Values, 50.0);
}

/// One reported metric. Samples is what the value summarises (0 for a
/// value that is not a summary of samples).
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  size_t Samples = 0;
};

/// Everything one run reports: the contract's four fields plus what the
/// --out record carries beside them.
struct RunResult {
  std::string Workload;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Human-readable, printed before JSON.
};

/// The contract's last line: {"correct", "attempted", "failed", "metrics"}.
/// Values print with 17 significant digits, i.e. exactly as measured.
inline std::string resultJson(const RunResult &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

/// The --out record of one run: the result plus its provenance (host
/// cores, build type, revision, seed) and every metric's sample count.
inline std::string recordJson(const RunResult &R, uint64_t Seed, bool Trace,
                              const std::string &Rev) {
  std::string Out = "{\"workload\": \"" + R.Workload + "\", \"seed\": " +
                    std::to_string(Seed) + ", \"trace\": " +
                    (Trace ? "true" : "false") + ", \"host_cores\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": \"" HALO_BENCH_BUILD_TYPE
                    "\", \"git_rev\": \"" +
                    Rev + "\", \"samples\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    Out += (I ? ", \"" : "\"") + R.Metrics[I].Name +
           "\": " + std::to_string(R.Metrics[I].Samples);
  return Out + "}, \"result\": " + resultJson(R) + "}";
}

/// Prints the notes and metrics of \p R for people, then the JSON line.
inline void printResult(const RunResult &R) {
  for (const std::string &Note : R.Notes)
    std::printf("# %s: %s\n", R.Workload.c_str(), Note.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("# %s: %-34s %14.4f %-9s (n=%zu)\n", R.Workload.c_str(),
                M.Name.c_str(), M.Value, M.Unit.c_str(), M.Samples);
  std::printf("%s\n", resultJson(R).c_str());
  std::fflush(stdout);
}

/// The command line both drivers take (run.sh adds --cli, --work, --rev).
struct Options {
  std::vector<std::string> Workloads; ///< Empty = all four.
  uint64_t Seed = 1;
  double Seconds = 20.0;
  bool Smoke = false;
  bool SelfTest = false;
  std::string OutPath;
  std::string Cli;
  std::string WorkDir = "build-bench/work";
  std::string Rev = "unknown";
};

[[noreturn]] inline void usageError(const char *Prog, const std::string &Msg) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--workload NAME] [--seed N] "
               "[--seconds S] [--smoke] [--out FILE] [--self-test]\n",
               Prog, Msg.c_str(), Prog);
  std::exit(2);
}

inline uint64_t parseUnsigned(const char *Prog, const std::string &Flag,
                              const std::string &Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (Text.empty() || *End != '\0' || Text[0] == '-')
    usageError(Prog, "invalid value for " + Flag + ": '" + Text + "'");
  return V;
}

inline Options parseOptions(int Argc, char **Argv) {
  Options O;
  const char *Prog = Argv[0];
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usageError(Prog, "flag " + Arg + " expects a value");
      return Argv[++I];
    };
    if (Arg == "--workload") {
      std::string Name = Value();
      if (std::find(workloads().begin(), workloads().end(), Name) ==
          workloads().end())
        usageError(Prog, "unknown workload '" + Name + "'");
      O.Workloads.push_back(Name);
    } else if (Arg == "--seed") {
      O.Seed = parseUnsigned(Prog, Arg, Value());
    } else if (Arg == "--seconds") {
      O.Seconds = static_cast<double>(parseUnsigned(Prog, Arg, Value()));
      if (O.Seconds < 1)
        usageError(Prog, "--seconds must be at least 1");
    } else if (Arg == "--smoke") {
      O.Smoke = true;
    } else if (Arg == "--self-test") {
      O.SelfTest = true;
    } else if (Arg == "--out") {
      O.OutPath = Value();
    } else if (Arg == "--cli") {
      O.Cli = Value();
    } else if (Arg == "--work") {
      O.WorkDir = Value();
    } else if (Arg == "--rev") {
      O.Rev = Value();
    } else {
      usageError(Prog, "unknown argument '" + Arg + "'");
    }
  }
  if (O.Workloads.empty())
    O.Workloads = workloads();
  // A smoke run does a tenth of the work with every check still on.
  if (O.Smoke)
    O.Seconds /= 10.0;
  return O;
}

/// Writes the --out records (a JSON array, one record per workload run).
inline bool writeRecords(const std::string &Path,
                         const std::vector<std::string> &Records) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I < Records.size(); ++I)
    std::fprintf(F, "  %s%s\n", Records[I].c_str(),
                 I + 1 < Records.size() ? "," : "");
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

/// Checks the stats helpers; returns the number of failed checks.
inline int selfTestCommon() {
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", What);
      ++Failures;
    }
  };
  std::vector<double> Ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(percentile(Ten, 50) == 5, "p50 of 1..10 is the 5th value");
  Expect(percentile(Ten, 90) == 9, "p90 of 1..10 is the 9th value");
  Expect(percentile(Ten, 100) == 10, "p100 is the maximum");
  Expect(percentile(Ten, 0) == 1, "p0 is the minimum");
  Expect(percentile({}, 50) == 0, "an empty sample reads 0");
  Expect(percentile({7}, 90) == 7, "one sample is every percentile");
  // Whole rounds of an 11-request mix: p50 and p75 stay on the 6th- and
  // 9th-slowest request kind for any round count (the rule the rounds
  // rely on).
  for (int Rounds = 1; Rounds <= 12; ++Rounds) {
    std::vector<double> Mix;
    for (int R = 0; R < Rounds; ++R)
      for (int K = 1; K <= 11; ++K)
        Mix.push_back(K * 100.0 + R);
    double P50 = percentile(Mix, 50), P75 = percentile(Mix, 75);
    Expect(P50 >= 600 && P50 < 700, "p50 of whole rounds stays on kind 6");
    Expect(P75 >= 900 && P75 < 1000, "p75 of whole rounds stays on kind 9");
  }
  std::vector<double> Forty;
  for (int I = 1; I <= 40; ++I)
    Forty.push_back(I);
  Expect(samplesAbove(Forty, percentile(Forty, 75)) == 10,
         "40 samples leave exactly 10 above p75");
  Shuffler A(7), B(7);
  std::vector<int> X = {1, 2, 3, 4, 5, 6, 7, 8}, Y = X;
  A.shuffle(X);
  B.shuffle(Y);
  Expect(X == Y, "a seed gives the same order every time");
  std::vector<int> Sorted = X;
  std::sort(Sorted.begin(), Sorted.end());
  Expect(Sorted == std::vector<int>({1, 2, 3, 4, 5, 6, 7, 8}),
         "a shuffle is a permutation");
  Expect(seedBase(1) == 100, "seed 1 is the paper's seed base");
  RunResult R;
  R.Metrics.push_back({"latency_p50_ms", "ms", 0.125, 3});
  Expect(resultJson(R) == "{\"correct\": true, \"attempted\": 0, \"failed\": "
                          "0, \"metrics\": {\"latency_p50_ms\": {\"value\": "
                          "0.125, \"unit\": \"ms\"}}}",
         "the result line has exactly the contract's keys");
  return Failures;
}

} // namespace bench

#endif // HALO_BENCHMARK_COMMON_H
