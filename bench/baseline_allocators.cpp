//===- bench/baseline_allocators.cpp - Section 5.1 baseline claim -------------===//
//
// Reproduces the Section 5.1 methodology claim: "Initial experiments show
// that [jemalloc] universally outperforms ptmalloc2 from glibc 2.27,
// reducing L1 data-cache misses by as much as 32%, and thus provides a
// more aggressive baseline against which to measure the benefits of
// cache-conscious heap-data placement."
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Section 5.1: jemalloc vs ptmalloc2 baselines (median of " +
           std::to_string(bench::trials()) + " trials)");
  R.setColumns({"benchmark", "L1D miss reduction", "time improvement"});
  double MaxMiss = 0.0;
  int Wins = 0, Total = 0;
  ResultSet Results = bench::measure(
      workloadNames(), {AllocatorKind::Ptmalloc, AllocatorKind::Jemalloc});
  for (const std::string &Name : workloadNames()) {
    const auto &Pt = bench::runs(Results, Name, AllocatorKind::Ptmalloc);
    const auto &Je = bench::runs(Results, Name, AllocatorKind::Jemalloc);
    double Miss = percentImprovement(Evaluation::medianL1Misses(Pt),
                                     Evaluation::medianL1Misses(Je));
    double Time = percentImprovement(Evaluation::medianSeconds(Pt),
                                     Evaluation::medianSeconds(Je));
    MaxMiss = std::max(MaxMiss, Miss);
    ++Total;
    Wins += Miss >= 0.0;
    R.addRow({Name, formatPercent(Miss), formatPercent(Time)});
  }
  R.addNote("jemalloc reduces L1D misses on " + std::to_string(Wins) + "/" +
            std::to_string(Total) + " benchmarks, by up to " +
            formatPercent(MaxMiss) + " (paper: up to 32%)");
  R.print();
  return 0;
}
