//===- bench/fig13_miss_reduction.cpp - Figure 13 -----------------------------===//
//
// Regenerates Figure 13: "The percentage by which both HALO and hot-data-
// stream-based co-allocation [11] reduce L1 data-cache misses across a
// range of 11 programs." Medians over repeated trials, jemalloc baseline.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Figure 13: L1D cache miss reduction vs jemalloc (median of " +
           std::to_string(bench::trials()) + " trials)");
  R.setColumns({"benchmark", "Chilimbi et al.", "HALO", "paper HDS~",
                "paper HALO~"});
  ResultSet Results = bench::measure(
      workloadNames(),
      {AllocatorKind::Jemalloc, AllocatorKind::Hds, AllocatorKind::Halo});
  for (const std::string &Name : workloadNames()) {
    ComparisonRow Row = comparisonRow(Results, Name, defaultMachine().Name);
    bench::PaperRow Paper = bench::paperFigures(Name);
    R.addRow({Name, formatPercent(Row.HdsMissReduction),
              formatPercent(Row.HaloMissReduction),
              formatPercent(Paper.HdsMiss, 0), formatPercent(Paper.HaloMiss, 0)});
  }
  R.addNote("paper columns are approximate bar heights from Figure 13");
  R.addNote("expected shape: HALO wins everywhere; HDS matches on the six "
            "prior-work benchmarks, fails on povray/omnetpp/xalanc/leela, "
            "degrades roms/omnetpp");
  R.print();
  return 0;
}
